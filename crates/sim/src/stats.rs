//! Run-report summaries: fairness, overhead and kernel-efficiency
//! metrics.

use crate::engine::RunReport;
use crate::scheduler::KernelStats;

/// Effective simulation speedup of the batched kernel over the
/// legacy always-execute loop, assuming equal per-executed-cycle cost:
/// `total_cycles / executed_cycles`. Returns 1.0 for an empty run (and
/// exactly 1.0 for a legacy run, which never skips).
pub fn kernel_speedup(stats: &KernelStats) -> f64 {
    if stats.executed_cycles == 0 {
        return 1.0;
    }
    stats.total_cycles() as f64 / stats.executed_cycles as f64
}

/// Jain's fairness index over a set of per-task quantities: 1.0 is
/// perfectly fair, `1/n` maximally unfair.
///
/// Returns 1.0 for empty or all-zero inputs (nothing to be unfair about).
pub fn jain_index(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().map(|&v| v as f64).sum();
    if sum == 0.0 {
        return 1.0;
    }
    let sum_sq: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
    sum * sum / (values.len() as f64 * sum_sq)
}

/// Aggregate view of a run used by the benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Total cycles.
    pub cycles: u64,
    /// Sum of all task stall cycles (grant + data waits).
    pub total_stall: u64,
    /// Sum of all task busy cycles.
    pub total_busy: u64,
    /// Jain index over per-task stall cycles (higher = fairer waiting).
    pub stall_fairness: f64,
    /// Violations observed.
    pub violations: usize,
}

impl RunSummary {
    /// Summarizes a report.
    pub fn of(report: &RunReport) -> Self {
        let stalls: Vec<u64> = report.task_stats.iter().map(|t| t.stall_cycles).collect();
        Self {
            cycles: report.cycles,
            total_stall: stalls.iter().sum(),
            total_busy: report.task_stats.iter().map(|t| t.busy_cycles).sum(),
            stall_fairness: jain_index(&stalls),
            violations: report.violations.len(),
        }
    }

    /// Arbitration overhead: stall share of the total task activity.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total_stall + self.total_busy;
        if total == 0 {
            0.0
        } else {
            self.total_stall as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_speedup_tracks_the_skip_share() {
        assert_eq!(kernel_speedup(&KernelStats::default()), 1.0);
        let legacy = KernelStats {
            executed_cycles: 500,
            skipped_cycles: 0,
            skips: 0,
        };
        assert_eq!(kernel_speedup(&legacy), 1.0);
        let batched = KernelStats {
            executed_cycles: 100,
            skipped_cycles: 900,
            skips: 12,
        };
        assert!((kernel_speedup(&batched) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_speedup_degenerate_runs_stay_finite() {
        // Nothing executed but cycles skipped (a run that was entirely
        // provably inert): the ratio would be infinite, so the metric
        // pins to the no-information value instead of dividing by zero.
        let all_skipped = KernelStats {
            executed_cycles: 0,
            skipped_cycles: 750,
            skips: 1,
        };
        assert_eq!(kernel_speedup(&all_skipped), 1.0);
        // A single executed cycle with no skips is exactly break-even.
        let one = KernelStats {
            executed_cycles: 1,
            skipped_cycles: 0,
            skips: 0,
        };
        assert_eq!(kernel_speedup(&one), 1.0);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0, 0]), 1.0);
        assert!((jain_index(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        // One hog out of four: index collapses toward 1/4.
        let unfair = jain_index(&[100, 0, 0, 0]);
        assert!((unfair - 0.25).abs() < 1e-12);
        let mid = jain_index(&[10, 5, 5, 5]);
        assert!(mid > unfair && mid < 1.0);
    }
}
