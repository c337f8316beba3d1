//! The simulation kernel's component layer.
//!
//! Every hardware unit the engine models — tasks, arbiters, memory
//! banks, channel routes, the violation monitor and the VCD tracer —
//! lives here as a self-contained component implementing [`Component`].
//! The engine (`crate::engine`) is reduced to orchestration glue: it
//! wires components together, drives the shared per-cycle phase order,
//! and lets the [`Scheduler`](crate::scheduler::Scheduler) skip whole
//! cycles whenever every component proves itself inert.
//!
//! The contract that makes skipping *exact* rather than approximate:
//!
//! - [`Component::wake`] reports, from the component's own state right
//!   after a cycle executed, whether the next cycle must run
//!   ([`Wake::Active`]), may be slept through until a known cycle
//!   ([`Wake::Timer`]), or needs nothing until some other component
//!   acts ([`Wake::Idle`]).
//! - [`Component::skip`] bulk-applies the per-cycle accounting (stall
//!   and busy counters, grant tallies, starvation ticks) that `k`
//!   executed-but-inert cycles would have applied, and nothing else.
//!
//! Both kernels share the same component step code, so the legacy
//! cycle-scanning loop and the batched structure-of-arrays kernel
//! (`soa`) differ *only* in whether provably inert cycles are executed
//! or skipped and in how the per-cycle traffic is carried (fresh
//! `BTreeMap`s versus reused flat arenas).

pub mod arbiter;
pub mod bank;
pub mod monitor;
pub mod route;
pub(crate) mod soa;
pub mod task;
pub mod tracer;

pub use arbiter::ArbiterComponent;
pub use bank::BankComponent;
pub use monitor::MonitorComponent;
pub use route::RouteComponent;
pub use task::{CycleEnv, ExecCtx, ReadFault, TaskComponent, TaskStatus};
pub use tracer::TracerComponent;

/// A component's wake condition, re-registered after every executed
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The next cycle must execute (the component is dirty).
    Active,
    /// Nothing happens until the given absolute cycle, which must then
    /// execute (e.g. a multi-cycle compute finishing).
    Timer(u64),
    /// Nothing happens until another component acts (a blocked wait, a
    /// finished task, an idle bank).
    Idle,
}

/// A simulated hardware unit owned by the kernel.
///
/// The trait carries the scheduling face of a component; the cycle-step
/// methods stay on the concrete types because each phase needs
/// different borrows of its neighbours (see `crate::engine`'s phase
/// order).
pub trait Component {
    /// A stable human-readable label for diagnostics.
    fn label(&self) -> String;

    /// The component's wake condition as of cycle `now` (the next cycle
    /// to execute). Must be derived from component state alone and err
    /// on the side of [`Wake::Active`].
    fn wake(&self, now: u64) -> Wake;

    /// Bulk-applies `cycles` skipped quiescent cycles. Called only when
    /// every component in the system reported a non-`Active` wake, so
    /// the implementation may assume no request line, grant word, bank
    /// content or route register changed across the gap.
    fn skip(&mut self, cycles: u64);
}
