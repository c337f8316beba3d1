//! The kernel-side units that have no behavioural model of their own.
//!
//! Each simulated hardware unit is one type. Arbiters, memory banks and
//! channel routes are their models ([`ArbiterSim`](crate::arbiter::ArbiterSim),
//! [`BankModel`](crate::memory::BankModel),
//! [`RouteState`](crate::channel::RouteState)), which also carry what
//! the batched kernel needs to skip cycles over them. This module holds
//! the rest:
//!
//! - [`TaskComponent`] — one task controller's datapath, program
//!   counter and request lines, with its [`Wake`] condition and bulk
//!   [`skip`](TaskComponent::skip) accounting;
//! - [`MonitorComponent`] — the run's violation log, starvation tracker
//!   and grant-wait watchdogs;
//! - [`TracerComponent`] — the VCD request/grant waveform;
//! - the structure-of-arrays state the cycle body runs over (bitset
//!   request matrix, reused traffic arenas, flat lookup tables).
//!
//! Both kernels execute one cycle body on these types (see
//! `crate::engine`), and step every arbiter through its own policy.
//! They differ only in skipping, parking and wait deferral, which the
//! legacy kernel turns off, and in where an arbiter's request word
//! comes from: the legacy kernel reassembles it from the task lines
//! every cycle, the batched kernel reads the incremental matrix.

pub mod monitor;
pub(crate) mod soa;
pub mod task;
pub mod tracer;

pub use monitor::MonitorComponent;
pub use task::{ReadFault, TaskComponent, TaskStatus};
pub use tracer::TracerComponent;

/// A task's wake condition, re-registered with the batched kernel's
/// scheduler after every executed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The next cycle must execute.
    Active,
    /// Nothing happens until the given absolute cycle, which must then
    /// execute (e.g. a multi-cycle compute finishing).
    Timer(u64),
    /// Nothing happens until another unit acts (a blocked wait, a
    /// finished or not-yet-released task).
    Idle,
}
