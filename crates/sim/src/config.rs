//! Simulation configuration.
//!
//! [`SimConfig`] gathers every knob the [`SystemBuilder`] used to expose
//! as individual `with_*` setters into one `Default`-able value, so call
//! sites configure a run in a single expression and configurations can be
//! stored, compared and passed around:
//!
//! ```
//! use rcarb_sim::config::SimConfig;
//! use rcarb_core::policy::PolicyKind;
//!
//! let config = SimConfig::new()
//!     .with_policy(PolicyKind::RoundRobin)
//!     .with_cosim(true)
//!     .with_starvation_bound(64);
//! assert!(config.cosim);
//! ```
//!
//! [`SystemBuilder`]: crate::engine::SystemBuilder

use crate::channel::RegisterPlacement;
use crate::fault::RecoveryPolicy;
use rcarb_core::line::{MemoryLinePlan, SharedLineKind};
use rcarb_core::policy::PolicyKind;

/// Runtime watchdog thresholds. Each watchdog is off at `u64::MAX`
/// (respectively `None`), so the default configuration monitors
/// nothing and changes no run's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Fire a [`Violation::GrantTimeout`] the first time a task's
    /// grant wait exceeds this many cycles (once per wait episode).
    ///
    /// [`Violation::GrantTimeout`]: crate::monitor::Violation::GrantTimeout
    pub grant_timeout: u64,
    /// Halt the run with a [`Violation::NoProgress`] when no task has
    /// made forward progress (busy cycle or completion) for this many
    /// consecutive cycles — the deadlock/livelock detector.
    ///
    /// [`Violation::NoProgress`]: crate::monitor::Violation::NoProgress
    pub progress_bound: u64,
    /// Cross-check the paper's fairness bound at runtime: with burst
    /// length `M`, no task behind an `N`-port arbiter should ever wait
    /// more than `(N - 1) * (M + 2)` cycles plus protocol slack. A
    /// longer wait fires a [`Violation::FairnessBreach`].
    ///
    /// [`Violation::FairnessBreach`]: crate::monitor::Violation::FairnessBreach
    pub fairness_m: Option<u32>,
}

impl WatchdogConfig {
    /// All watchdogs off.
    pub fn none() -> Self {
        Self {
            grant_timeout: u64::MAX,
            progress_bound: u64::MAX,
            fairness_m: None,
        }
    }

    /// Fires a violation when a grant wait exceeds `cycles`.
    #[must_use]
    pub fn with_grant_timeout(mut self, cycles: u64) -> Self {
        self.grant_timeout = cycles;
        self
    }

    /// Halts the run after `cycles` consecutive cycles without task
    /// progress.
    #[must_use]
    pub fn with_progress_bound(mut self, cycles: u64) -> Self {
        self.progress_bound = cycles;
        self
    }

    /// Cross-checks the fairness bound for burst length `m` at runtime.
    #[must_use]
    pub fn with_fairness_m(mut self, m: u32) -> Self {
        self.fairness_m = Some(m);
        self
    }

    /// True when every watchdog is disabled.
    pub fn is_off(&self) -> bool {
        self.grant_timeout == u64::MAX
            && self.progress_bound == u64::MAX
            && self.fairness_m.is_none()
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Which simulation kernel executes the run.
///
/// Both kernels share one cycle semantics — phase order, component
/// code and violation ordering are identical — and are proven
/// report/VCD/memory-identical by `tests/kernel_equivalence.rs`. They
/// differ only in *how* they reach the next interesting cycle:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Execute every cycle, component by component. The slowest and
    /// simplest kernel, kept as the differential oracle the production
    /// kernel is measured and verified against.
    Legacy,
    /// Deprecated alias for [`KernelKind::BatchedSoa`]: the
    /// per-component event kernel it named is gone. The alias goes away
    /// with the next change to the `arbbench` harness, the last code
    /// that still names it.
    #[deprecated(note = "the event kernel is gone; this alias runs `KernelKind::BatchedSoa`")]
    Event,
    /// Cycle-skipping plus a batched structure-of-arrays dense path:
    /// provably inert stretches are bulk-accounted, request/grant state
    /// lives in flat `u64` bitset lanes, arbiter FSMs step as
    /// word-level operations, and per-cycle traffic is carried in
    /// reused arenas instead of fresh `BTreeMap`s. The default and the
    /// one production kernel.
    BatchedSoa,
}

/// Every knob of a simulated system, with the paper's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Arbitration policy simulated behaviourally.
    pub policy: PolicyKind,
    /// Gate-level co-simulation of every round-robin arbiter.
    pub cosim: bool,
    /// Record per-port Request/Grant lines into a VCD waveform.
    pub trace: bool,
    /// Where shared-channel registers sit (Table 1 ablation).
    pub register_placement: RegisterPlacement,
    /// Discipline of every shared bank's write-select line (Fig. 4
    /// ablation).
    pub select_line: SharedLineKind,
    /// Any wait longer than this many cycles is flagged as starvation.
    pub starvation_bound: u64,
    /// Which kernel runs the cycle loop. Both kinds produce identical
    /// reports; select [`KernelKind::Legacy`] only when diagnosing a
    /// suspected kernel divergence, never for performance.
    pub kernel: KernelKind,
    /// Runtime watchdog thresholds (all off by default).
    pub watchdog: WatchdogConfig,
    /// What the runtime may do about detected faults (nothing by
    /// default).
    pub recovery: RecoveryPolicy,
}

impl SimConfig {
    /// The paper's defaults: behavioural round-robin, no co-simulation,
    /// no tracing, receiver-side channel registers, active-high OR'd
    /// write selects, starvation monitoring off.
    pub fn new() -> Self {
        Self {
            policy: PolicyKind::RoundRobin,
            cosim: false,
            trace: false,
            register_placement: RegisterPlacement::Receiver,
            select_line: MemoryLinePlan::sram_write_high().write_select,
            starvation_bound: u64::MAX,
            kernel: KernelKind::BatchedSoa,
            watchdog: WatchdogConfig::none(),
            recovery: RecoveryPolicy::none(),
        }
    }

    /// Selects the arbitration policy simulated behaviourally.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Enables gate-level co-simulation of every round-robin arbiter.
    #[must_use]
    pub fn with_cosim(mut self, enabled: bool) -> Self {
        self.cosim = enabled;
        self
    }

    /// Records every arbiter's per-port Request/Grant lines into a VCD
    /// waveform, retrievable after the run with
    /// [`System::vcd`](crate::engine::System::vcd).
    #[must_use]
    pub fn with_trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Selects where shared-channel registers sit (Table 1 ablation).
    #[must_use]
    pub fn with_register_placement(mut self, placement: RegisterPlacement) -> Self {
        self.register_placement = placement;
        self
    }

    /// Selects the discipline of every shared bank's write-select line
    /// (the paper's Fig. 4 ablation): the correct
    /// [`SharedLineKind::ActiveHighOr`] keeps an idle bank in read mode;
    /// the naive [`SharedLineKind::TriState`] lets the select float,
    /// which the simulator reports as a
    /// [`Violation::FloatingSelectLine`](crate::monitor::Violation::FloatingSelectLine).
    #[must_use]
    pub fn with_select_line(mut self, kind: SharedLineKind) -> Self {
        self.select_line = kind;
        self
    }

    /// Flags any wait longer than `bound` cycles as starvation.
    #[must_use]
    pub fn with_starvation_bound(mut self, bound: u64) -> Self {
        self.starvation_bound = bound;
        self
    }

    /// Sets the runtime watchdog thresholds.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Sets the fault recovery policy.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Selects the simulation kernel. Reports are provably identical
    /// across both kinds — see `tests/kernel_equivalence.rs` — so this
    /// is a diagnostic switch, not a semantic one.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_papers_settings() {
        let c = SimConfig::default();
        assert_eq!(c.policy, PolicyKind::RoundRobin);
        assert!(!c.cosim);
        assert!(!c.trace);
        assert_eq!(c.register_placement, RegisterPlacement::Receiver);
        assert_eq!(c.starvation_bound, u64::MAX);
        // The batched SoA kernel is the default.
        assert_eq!(c.kernel, KernelKind::BatchedSoa);
        assert_eq!(
            SimConfig::new().with_kernel(KernelKind::Legacy).kernel,
            KernelKind::Legacy
        );
        // No watchdogs, no recovery: faults change nothing unless asked.
        assert!(c.watchdog.is_off());
        assert_eq!(c.recovery, RecoveryPolicy::none());
    }

    #[test]
    fn watchdog_builders_compose() {
        let w = WatchdogConfig::none()
            .with_grant_timeout(32)
            .with_progress_bound(1000)
            .with_fairness_m(2);
        assert_eq!(w.grant_timeout, 32);
        assert_eq!(w.progress_bound, 1000);
        assert_eq!(w.fairness_m, Some(2));
        assert!(!w.is_off());
        assert!(WatchdogConfig::default().is_off());
    }

    #[test]
    fn builder_methods_compose() {
        let c = SimConfig::new()
            .with_cosim(true)
            .with_trace(true)
            .with_starvation_bound(16);
        assert!(c.cosim && c.trace);
        assert_eq!(c.starvation_bound, 16);
        // Copy semantics: the original default is untouched.
        assert!(!SimConfig::new().cosim);
    }
}
