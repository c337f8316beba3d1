//! The monitor component: the run's violation log and starvation
//! tracker, shared by every phase of the cycle — plus the grant-wait
//! watchdogs (bounded-wait timeout and the runtime fairness
//! cross-check of the paper's M-bound).

use std::collections::{BTreeMap, BTreeSet};

use crate::config::WatchdogConfig;
use crate::monitor::{StarvationTracker, Violation};
use rcarb_taskgraph::id::{ArbiterId, TaskId};

/// Collects property violations and grant-wait statistics for the run,
/// and fires the per-wait watchdogs at the exact crossing cycle on
/// both kernels.
#[derive(Debug, Default)]
pub struct MonitorComponent {
    violations: Vec<Violation>,
    starvation: StarvationTracker,
    watchdog: WatchdogConfig,
    /// Per-arbiter runtime fairness bound, `(N-1)*(M+2)` plus protocol
    /// slack, registered at build when `fairness_m` is set.
    fairness_bounds: BTreeMap<ArbiterId, u64>,
    /// Wait episodes that already fired a timeout violation.
    fired_timeout: BTreeSet<(TaskId, ArbiterId)>,
    /// Wait episodes that already fired a fairness violation.
    fired_fairness: BTreeSet<(TaskId, ArbiterId)>,
    /// When set (observability on), every completed wait episode is
    /// appended to `episodes`; off by default so the zero-obs path
    /// allocates nothing.
    record_episodes: bool,
    /// Completed grant-wait episodes `(task, arbiter, cycles waited)`,
    /// in grant order. A zero-length episode is a grant that was
    /// already visible when the task reached its `AwaitGrant`.
    episodes: Vec<(TaskId, ArbiterId, u64)>,
}

impl MonitorComponent {
    /// An empty monitor with all watchdogs off.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty monitor firing the given watchdogs.
    pub fn with_watchdog(watchdog: WatchdogConfig) -> Self {
        Self {
            watchdog,
            ..Self::default()
        }
    }

    /// Registers `arbiter`'s runtime fairness bound (called at build
    /// when the fairness cross-check is enabled).
    pub fn set_fairness_bound(&mut self, arbiter: ArbiterId, bound: u64) {
        self.fairness_bounds.insert(arbiter, bound);
    }

    /// Records a violation.
    pub fn push(&mut self, violation: Violation) {
        self.violations.push(violation);
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Turns on grant-wait episode recording (the observability
    /// layer's per-arbiter wait histograms).
    pub fn enable_episode_recording(&mut self) {
        self.record_episodes = true;
    }

    /// Completed grant-wait episodes, in grant order. Empty unless
    /// [`enable_episode_recording`](Self::enable_episode_recording)
    /// was called.
    pub fn episodes(&self) -> &[(TaskId, ArbiterId, u64)] {
        &self.episodes
    }

    /// Notes that `task` saw `arbiter`'s grant (ends its current wait
    /// episode, re-arming the watchdogs for the next one).
    pub fn granted(&mut self, task: TaskId, arbiter: ArbiterId) {
        if self.record_episodes {
            let waited = self.starvation.current_wait(task, arbiter);
            self.episodes.push((task, arbiter, waited));
        }
        self.starvation.granted(task, arbiter);
        self.fired_timeout.remove(&(task, arbiter));
        self.fired_fairness.remove(&(task, arbiter));
    }

    /// Notes one cycle of `task` waiting on `arbiter` at `cycle`,
    /// firing any watchdog whose bound the wait just crossed.
    pub fn tick_waiting(&mut self, task: TaskId, arbiter: ArbiterId, cycle: u64) {
        self.starvation.tick_waiting(task, arbiter);
        let w = self.starvation.current_wait(task, arbiter);
        for v in self.crossings(task, arbiter, w - 1, w, cycle) {
            self.violations.push(v);
        }
    }

    /// Bulk-notes `cycles` waiting cycles covering the skipped span
    /// starting at `start_cycle`. Watchdog crossings inside the span
    /// are *returned*, not pushed: the engine merges crossings from
    /// every skipped task into executed-cycle order before recording
    /// them, so both kernels log identical sequences.
    #[must_use]
    pub fn tick_waiting_n(
        &mut self,
        task: TaskId,
        arbiter: ArbiterId,
        cycles: u64,
        start_cycle: u64,
    ) -> Vec<Violation> {
        if cycles == 0 {
            return Vec::new();
        }
        self.starvation.tick_waiting_n(task, arbiter, cycles);
        let after = self.starvation.current_wait(task, arbiter);
        self.crossings(task, arbiter, after - cycles, after, start_cycle)
    }

    /// The watchdog violations whose bounds the wait crossed while
    /// growing from `before` to `after`, with the wait at `before`
    /// corresponding to cycle `start_cycle - 1`'s end (i.e. the first
    /// accounted cycle is `start_cycle`). A bound `b` is crossed at the
    /// cycle that makes the wait `b + 1` cycles long.
    fn crossings(
        &mut self,
        task: TaskId,
        arbiter: ArbiterId,
        before: u64,
        after: u64,
        start_cycle: u64,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        let timeout = self.watchdog.grant_timeout;
        if timeout != u64::MAX
            && before <= timeout
            && after > timeout
            && self.fired_timeout.insert((task, arbiter))
        {
            out.push(Violation::GrantTimeout {
                cycle: start_cycle + (timeout - before),
                task,
                arbiter,
                waited: timeout + 1,
            });
        }
        if let Some(&bound) = self.fairness_bounds.get(&arbiter) {
            if before <= bound && after > bound && self.fired_fairness.insert((task, arbiter)) {
                out.push(Violation::FairnessBreach {
                    cycle: start_cycle + (bound - before),
                    task,
                    arbiter,
                    waited: bound + 1,
                    bound,
                });
            }
        }
        out
    }

    /// Whether any per-cycle wait watchdog can fire. With the grant
    /// timeout and every fairness bound disarmed, a waiting tick can
    /// never produce a crossing, so the batched kernel is free to
    /// defer blocked tasks' ticks and apply them in bulk — the
    /// starvation tracker's totals are order-independent.
    pub(crate) fn wait_bounds_armed(&self) -> bool {
        self.watchdog.grant_timeout != u64::MAX || !self.fairness_bounds.is_empty()
    }

    /// Starvation violations against `bound`, computed at run end.
    pub fn starvation_violations(&self, bound: u64) -> Vec<Violation> {
        self.starvation.violations(bound)
    }

    /// Worst grant wait observed anywhere.
    pub fn global_worst(&self) -> u64 {
        self.starvation.global_worst()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId::new(i)
    }
    fn a(i: u32) -> ArbiterId {
        ArbiterId::new(i)
    }

    #[test]
    fn timeout_fires_once_per_episode_at_the_crossing_cycle() {
        let mut m = MonitorComponent::with_watchdog(WatchdogConfig::none().with_grant_timeout(3));
        for c in 10..20 {
            m.tick_waiting(t(0), a(0), c);
        }
        assert_eq!(m.violations().len(), 1);
        assert_eq!(
            m.violations()[0],
            Violation::GrantTimeout {
                cycle: 13, // wait becomes 4 (> 3) on the 4th tick
                task: t(0),
                arbiter: a(0),
                waited: 4,
            }
        );
        // A grant re-arms the watchdog; a fresh long wait fires again.
        m.granted(t(0), a(0));
        for c in 30..40 {
            m.tick_waiting(t(0), a(0), c);
        }
        assert_eq!(m.violations().len(), 2);
        assert_eq!(m.violations()[1].cycle(), Some(33));
    }

    #[test]
    fn bulk_ticks_report_the_same_crossing_as_single_ticks() {
        let single = {
            let mut m =
                MonitorComponent::with_watchdog(WatchdogConfig::none().with_grant_timeout(5));
            for c in 100..110 {
                m.tick_waiting(t(1), a(0), c);
            }
            m.violations().to_vec()
        };
        let bulk = {
            let mut m =
                MonitorComponent::with_watchdog(WatchdogConfig::none().with_grant_timeout(5));
            // Two executed ticks, then an 8-cycle skip.
            m.tick_waiting(t(1), a(0), 100);
            m.tick_waiting(t(1), a(0), 101);
            let crossings = m.tick_waiting_n(t(1), a(0), 8, 102);
            for v in crossings {
                m.push(v);
            }
            m.violations().to_vec()
        };
        assert_eq!(single, bulk);
    }

    #[test]
    fn fairness_bound_is_per_arbiter() {
        let mut m = MonitorComponent::with_watchdog(WatchdogConfig::none().with_fairness_m(2));
        m.set_fairness_bound(a(0), 4);
        for c in 0..10 {
            m.tick_waiting(t(0), a(0), c);
            m.tick_waiting(t(0), a(1), c); // no bound registered
        }
        assert_eq!(m.violations().len(), 1);
        assert_eq!(
            m.violations()[0],
            Violation::FairnessBreach {
                cycle: 4,
                task: t(0),
                arbiter: a(0),
                waited: 5,
                bound: 4,
            }
        );
    }

    #[test]
    fn episodes_record_only_when_enabled() {
        let mut m = MonitorComponent::new();
        m.tick_waiting(t(0), a(0), 0);
        m.granted(t(0), a(0));
        assert!(m.episodes().is_empty());
        m.enable_episode_recording();
        for c in 1..4 {
            m.tick_waiting(t(0), a(0), c);
        }
        m.granted(t(0), a(0));
        m.granted(t(1), a(0)); // grant with no preceding wait
        assert_eq!(m.episodes(), &[(t(0), a(0), 3), (t(1), a(0), 0)]);
    }

    #[test]
    fn disabled_watchdogs_never_fire() {
        let mut m = MonitorComponent::new();
        for c in 0..1000 {
            m.tick_waiting(t(0), a(0), c);
        }
        assert!(m.violations().is_empty());
        assert_eq!(m.global_worst(), 1000);
    }
}
