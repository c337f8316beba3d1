//! The batched kernel's wake-list/dirty-set scheduler.
//!
//! After every executed cycle the engine re-registers the system's wake
//! condition here: a task that must run next cycle (see
//! [`TaskComponent::wake`]), an arbiter that is not steady or a bank
//! whose idle select line may float marks the system **active**; a task
//! sleeping until a known cycle registers a **timer**; provably
//! quiescent units register nothing at all. When nothing is active the
//! engine may jump the clock straight to the earliest timer —
//! [`skippable`](Scheduler::skippable) computes exactly how far — and
//! bulk-account the skipped cycles on each task and arbiter
//! ([`TaskComponent::skip`]).
//!
//! The same timers also cut the cycles that *do* execute. A task that
//! steps into a multi-cycle compute is **parked** on its wake cycle:
//! the engine neither steps, refreshes nor skips it until then, and
//! registers the parked wake cycle as its timer. Its countdown and busy
//! cycles, executed and skipped alike, are settled in one
//! [`TaskComponent::skip`] on the wake cycle. Tasks in a plain grant or
//! data wait are likewise deferred rather than stepped.
//!
//! The scheduler never *guesses*: a skip is offered only when every
//! unit proved, from its own state, that executing the intervening
//! cycles would change nothing but a handful of counters. That proof is
//! what the `tests/kernel_equivalence.rs` suite checks against the
//! legacy cycle-scanning loop.
//!
//! [`TaskComponent::wake`]: crate::component::TaskComponent::wake
//! [`TaskComponent::skip`]: crate::component::TaskComponent::skip

/// Cycle-accounting statistics of a kernel run.
///
/// `executed_cycles + skipped_cycles` always equals the report's total
/// cycle count; the legacy kernel simply never skips. Kept on the
/// [`System`](crate::engine::System) rather than in the
/// [`RunReport`](crate::engine::RunReport) so reports stay comparable
/// across kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Cycles the kernel actually executed.
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
/// Storage is deliberately flat — whether anything is dirty and the
/// earliest timer — because those are the only two facts the engine ever
/// asks for, and the refresh runs after *every* executed cycle: on dense
/// workloads any per-refresh allocation would tax the kernel exactly
/// where it cannot win cycles back by skipping.
#[derive(Debug, Default)]
pub struct Scheduler {
    /// Whether some unit requires execution next cycle (the engine
    /// stops refreshing at the first one).
    active: bool,
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
        self.active = false;
        self.next_timer = None;
        self.primed = true;
    }

    /// Marks the system dirty: the next cycle must execute.
    pub fn mark_active(&mut self) {
        self.active = true;
    }

    /// Registers a timer: a task sleeps until `cycle`, which must then
    /// execute.
    pub fn wake_at(&mut self, cycle: u64) {
        self.next_timer = Some(match self.next_timer {
            Some(t) => t.min(cycle),
            None => cycle,
        });
    }

    /// True when nothing is dirty.
    pub fn is_quiescent(&self) -> bool {
        self.primed && !self.active
    }

    /// The earliest registered timer, if any.
    pub fn next_wake(&self) -> Option<u64> {
        self.next_timer
    }

    /// How many whole cycles may be skipped starting at `now`, given
    /// the run stops at `max_cycles`: zero whenever anything is
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
/// Two ascending lists partition the interesting tasks:
///
/// - `running` — tasks that have started and not finished, in
///   ascending index order (the order the legacy kernel steps them, so
///   violation and traffic ordering is preserved). Parked sleepers and
///   deferred waits stay on this list; the engine passes over them
///   until they wake, so a compute or a wait costs no list churn. The
///   tasks whose release fired this cycle are appended as a tail and
///   merged into that order once their programs have started;
/// - `pending` — tasks not yet released, polled against the release
///   schedule at the top of each cycle.
///
/// Both buffers are reused across cycles; the only allocations are the
/// initial builds and growth after a rebuild.
#[derive(Debug, Default)]
pub struct WakeList {
    running: Vec<u32>,
    pending: Vec<u32>,
    /// Where this cycle's released tail starts in `running`.
    released_from: usize,
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
        for i in 0..n {
            if is_running(i) {
                self.running.push(i as u32);
            } else if is_pending(i) {
                self.pending.push(i as u32);
            }
        }
        self.released_from = self.running.len();
    }

    /// Moves every pending task approved by `ready` into the released
    /// tail.
    pub fn drain_ready(&mut self, mut ready: impl FnMut(u32) -> bool) {
        let Self {
            running,
            pending,
            released_from,
        } = self;
        *released_from = running.len();
        pending.retain(|&t| {
            if ready(t) {
                running.push(t);
                false
            } else {
                true
            }
        });
    }

    /// The tasks released this cycle (filled by
    /// [`drain_ready`](Self::drain_ready)).
    pub fn released(&self) -> &[u32] {
        &self.running[self.released_from..]
    }

    /// Merges the released tasks `keep` approves into the running list,
    /// restoring ascending order. `keep` filters out tasks that finished
    /// during release itself (an empty program is `Done` the moment it
    /// starts).
    pub fn commit_released(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let from = self.released_from;
        let mut kept = from;
        for i in from..self.running.len() {
            let t = self.running[i];
            if keep(t) {
                self.running[kept] = t;
                kept += 1;
            }
        }
        self.running.truncate(kept);
        if kept > from {
            self.running.sort_unstable();
        }
        self.released_from = kept;
    }

    /// Drops every running task `still_running` rejects (tasks that
    /// completed this cycle). Order is preserved.
    pub fn retire(&mut self, mut still_running: impl FnMut(u32) -> bool) {
        self.running.retain(|&t| still_running(t));
        self.released_from = self.running.len();
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
        s.mark_active();
        assert_eq!(s.skippable(5, 1000), 0);
        assert!(!s.is_quiescent());
    }

    #[test]
    fn skip_runs_to_the_earliest_timer() {
        let mut s = Scheduler::new();
        s.begin_refresh();
        s.wake_at(40);
        s.wake_at(12);
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
        s.wake_at(50);
        assert_eq!(s.skippable(3, 10), 7); // timer beyond the limit
    }

    #[test]
    fn refresh_clears_previous_registrations() {
        let mut s = Scheduler::new();
        s.begin_refresh();
        s.mark_active();
        s.wake_at(9);
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
