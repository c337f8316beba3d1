//! The batched kernel's wake-list/dirty-set scheduler.
//!
//! After every executed cycle the engine re-registers each component's
//! wake condition here (see [`Component::wake`]): components that must
//! run next cycle land in the **dirty set**, components sleeping until a
//! known cycle land in the **wake list** (a timer map), and provably
//! quiescent components register nothing at all. When the dirty set is
//! empty the engine may jump the clock straight to the earliest timer —
//! [`skippable`](Scheduler::skippable) computes exactly how far — and
//! bulk-account the skipped cycles on each component
//! ([`Component::skip`]).
//!
//! The scheduler never *guesses*: a skip is offered only when every
//! component proved, from its own state, that executing the intervening
//! cycles would change nothing but a handful of counters. That proof is
//! what the `tests/kernel_equivalence.rs` suite checks against the
//! legacy cycle-scanning loop.
//!
//! [`Component::wake`]: crate::component::Component::wake
//! [`Component::skip`]: crate::component::Component::skip

/// Identifies a component registered with the [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CompId {
    /// A task component, by index in the kernel's task vector.
    Task(usize),
    /// An arbiter component, by index in the kernel's arbiter vector.
    Arbiter(usize),
    /// A memory-bank component, by position in the kernel's bank map.
    Bank(usize),
}

/// Cycle-accounting statistics of a kernel run.
///
/// `executed_cycles + skipped_cycles` always equals the report's total
/// cycle count; the legacy kernel simply never skips. Kept on the
/// [`System`](crate::engine::System) rather than in the
/// [`RunReport`](crate::engine::RunReport) so reports stay comparable
/// across kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Cycles the kernel actually stepped component by component.
    pub executed_cycles: u64,
    /// Cycles proven inert and bulk-accounted without execution.
    pub skipped_cycles: u64,
    /// Number of bulk jumps taken (each covers >= 1 skipped cycle).
    pub skips: u64,
}

rcarb_json::impl_json_struct!(KernelStats {
    executed_cycles,
    skipped_cycles,
    skips,
});

impl KernelStats {
    /// Total simulated cycles (executed plus skipped).
    pub fn total_cycles(&self) -> u64 {
        self.executed_cycles + self.skipped_cycles
    }

    /// Fraction of simulated cycles that were skipped, in `0.0..=1.0`
    /// (zero for an empty run).
    pub fn skip_ratio(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }

    /// Merges another run's counters into this one (used to aggregate
    /// multi-partition flows).
    pub fn absorb(&mut self, other: KernelStats) {
        self.executed_cycles += other.executed_cycles;
        self.skipped_cycles += other.skipped_cycles;
        self.skips += other.skips;
    }
}

/// The wake-list/dirty-set bookkeeping behind the batched kernel's skips.
///
/// Storage is deliberately flat — the first dirty component and the
/// earliest timer — because those are the only two facts the engine ever
/// asks for, and the refresh runs after *every* executed cycle: on dense
/// workloads any per-refresh allocation would tax the kernel exactly
/// where it cannot win cycles back by skipping.
#[derive(Debug, Default)]
pub struct Scheduler {
    /// The first component found to require execution next cycle, if
    /// any (the engine stops refreshing at the first one).
    active: Option<CompId>,
    /// The earliest registered absolute wake cycle, if any.
    next_timer: Option<u64>,
    /// False until the first refresh: a fresh system always executes
    /// its first cycle (every task release happens there).
    primed: bool,
    stats: KernelStats,
}

impl Scheduler {
    /// An empty, unprimed scheduler: no skips are offered until the
    /// first [`begin_refresh`](Self::begin_refresh).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all registrations ahead of a post-cycle wake refresh.
    pub fn begin_refresh(&mut self) {
        self.active = None;
        self.next_timer = None;
        self.primed = true;
    }

    /// Marks a component dirty: the next cycle must execute.
    pub fn mark_active(&mut self, id: CompId) {
        self.active.get_or_insert(id);
    }

    /// Registers a timer: the component sleeps until `cycle`, which
    /// must then execute.
    pub fn wake_at(&mut self, cycle: u64, _id: CompId) {
        self.next_timer = Some(match self.next_timer {
            Some(t) => t.min(cycle),
            None => cycle,
        });
    }

    /// True when no component is dirty.
    pub fn is_quiescent(&self) -> bool {
        self.primed && self.active.is_none()
    }

    /// The component blocking any skip, if one is dirty.
    pub fn blocking(&self) -> Option<CompId> {
        self.active
    }

    /// The earliest registered timer, if any.
    pub fn next_wake(&self) -> Option<u64> {
        self.next_timer
    }

    /// How many whole cycles may be skipped starting at `now`, given
    /// the run stops at `max_cycles`: zero whenever any component is
    /// dirty, otherwise the distance to the earliest timer (or to the
    /// cycle limit when nothing is scheduled at all — a deadlocked but
    /// quiescent system skips straight to its timeout).
    pub fn skippable(&self, now: u64, max_cycles: u64) -> u64 {
        if !self.is_quiescent() {
            return 0;
        }
        let horizon = self.next_wake().unwrap_or(u64::MAX).min(max_cycles);
        horizon.saturating_sub(now)
    }

    /// Counts one executed cycle.
    pub fn record_executed(&mut self) {
        self.stats.executed_cycles += 1;
    }

    /// Counts one bulk jump over `cycles` skipped cycles.
    pub fn record_skip(&mut self, cycles: u64) {
        self.stats.skipped_cycles += cycles;
        self.stats.skips += 1;
    }

    /// The run's cycle-accounting counters so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }
}

/// The batched kernel's arena-backed wake-list: the task indices that
/// need stepping each cycle, maintained incrementally so the dense
/// sweep touches only live tasks instead of scanning (and re-checking
/// the status of) every task every cycle.
///
/// Three ascending lists partition the interesting tasks:
///
/// - `running` — tasks to step this cycle, in ascending index order
///   (the order the dispatch kernels step them, so violation and
///   traffic ordering is preserved);
/// - `pending` — tasks not yet released, polled against the release
///   schedule at the top of each cycle;
/// - `released` — the cycle's scratch buffer of tasks whose release
///   fired, merged into `running` once their programs have started.
///
/// All three buffers are reused across cycles; the only allocations are
/// the initial builds and growth after a rebuild.
#[derive(Debug, Default)]
pub struct WakeList {
    running: Vec<u32>,
    pending: Vec<u32>,
    released: Vec<u32>,
}

impl WakeList {
    /// Rebuilds the lists from scratch by classifying all `n` tasks.
    /// Used at construction and after any structural change.
    pub fn rebuild(
        &mut self,
        n: usize,
        is_running: impl Fn(usize) -> bool,
        is_pending: impl Fn(usize) -> bool,
    ) {
        self.running.clear();
        self.pending.clear();
        self.released.clear();
        for i in 0..n {
            if is_running(i) {
                self.running.push(i as u32);
            } else if is_pending(i) {
                self.pending.push(i as u32);
            }
        }
    }

    /// Moves every pending task approved by `ready` into the released
    /// scratch buffer (clearing any previous cycle's leftovers).
    pub fn drain_ready(&mut self, mut ready: impl FnMut(u32) -> bool) {
        let Self {
            pending, released, ..
        } = self;
        released.clear();
        pending.retain(|&t| {
            if ready(t) {
                released.push(t);
                false
            } else {
                true
            }
        });
    }

    /// The tasks released this cycle (filled by
    /// [`drain_ready`](Self::drain_ready)).
    pub fn released(&self) -> &[u32] {
        &self.released
    }

    /// Merges the released tasks `keep` approves into the running list,
    /// restoring ascending order. `keep` filters out tasks that finished
    /// during release itself (an empty program is `Done` the moment it
    /// starts).
    pub fn commit_released(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let Self {
            running, released, ..
        } = self;
        running.extend(released.drain(..).filter(|&t| keep(t)));
        running.sort_unstable();
    }

    /// Drops every running task `still_running` rejects (tasks that
    /// completed this cycle). Order is preserved.
    pub fn retire(&mut self, mut still_running: impl FnMut(u32) -> bool) {
        self.running.retain(|&t| still_running(t));
    }

    /// The tasks to step this cycle, ascending.
    pub fn running(&self) -> &[u32] {
        &self.running
    }

    /// The tasks not yet released, ascending.
    pub fn pending(&self) -> &[u32] {
        &self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprimed_scheduler_offers_no_skip() {
        let s = Scheduler::new();
        assert_eq!(s.skippable(0, 1000), 0);
    }

    #[test]
    fn dirty_set_blocks_skipping() {
        let mut s = Scheduler::new();
        s.begin_refresh();
        s.mark_active(CompId::Task(0));
        assert_eq!(s.skippable(5, 1000), 0);
        assert!(!s.is_quiescent());
    }

    #[test]
    fn skip_runs_to_the_earliest_timer() {
        let mut s = Scheduler::new();
        s.begin_refresh();
        s.wake_at(40, CompId::Task(1));
        s.wake_at(12, CompId::Task(0));
        assert_eq!(s.next_wake(), Some(12));
        assert_eq!(s.skippable(5, 1000), 7);
        // The wake cycle itself must execute.
        assert_eq!(s.skippable(12, 1000), 0);
    }

    #[test]
    fn skip_is_clamped_to_the_cycle_limit() {
        let mut s = Scheduler::new();
        s.begin_refresh();
        assert_eq!(s.skippable(3, 10), 7); // deadlock: jump to timeout
        s.wake_at(50, CompId::Arbiter(0));
        assert_eq!(s.skippable(3, 10), 7); // timer beyond the limit
    }

    #[test]
    fn refresh_clears_previous_registrations() {
        let mut s = Scheduler::new();
        s.begin_refresh();
        s.mark_active(CompId::Bank(2));
        s.wake_at(9, CompId::Task(0));
        s.begin_refresh();
        assert!(s.is_quiescent());
        assert_eq!(s.next_wake(), None);
    }

    #[test]
    fn wake_list_partitions_and_releases_in_order() {
        let mut w = WakeList::default();
        // Tasks 1 and 4 run, 0 and 3 wait for release, 2 is done.
        w.rebuild(5, |i| i == 1 || i == 4, |i| i == 0 || i == 3);
        assert_eq!(w.running(), &[1, 4]);
        assert_eq!(w.pending(), &[0, 3]);
        // Release task 3 only.
        w.drain_ready(|t| t == 3);
        assert_eq!(w.released(), &[3]);
        assert_eq!(w.pending(), &[0]);
        w.commit_released(|_| true);
        // Merged back in ascending order.
        assert_eq!(w.running(), &[1, 3, 4]);
        // Task 4 completes.
        w.retire(|t| t != 4);
        assert_eq!(w.running(), &[1, 3]);
    }

    #[test]
    fn wake_list_commit_filters_instantly_done_tasks() {
        let mut w = WakeList::default();
        w.rebuild(2, |_| false, |_| true);
        w.drain_ready(|_| true);
        assert_eq!(w.released(), &[0, 1]);
        // Task 0's empty program finished during release: never runs.
        w.commit_released(|t| t != 0);
        assert_eq!(w.running(), &[1]);
        assert!(w.pending().is_empty());
    }

    #[test]
    fn stats_accumulate_and_ratio_is_bounded() {
        let mut s = Scheduler::new();
        assert_eq!(s.stats().skip_ratio(), 0.0);
        s.record_executed();
        s.record_skip(99);
        let stats = s.stats();
        assert_eq!(stats.total_cycles(), 100);
        assert_eq!(stats.skips, 1);
        assert!((stats.skip_ratio() - 0.99).abs() < 1e-12);
        let mut agg = KernelStats::default();
        agg.absorb(stats);
        agg.absorb(stats);
        assert_eq!(agg.total_cycles(), 200);
    }
}
