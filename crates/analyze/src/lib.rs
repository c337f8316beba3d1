#![warn(missing_docs)]

//! # rcarb-analyze — design-rule static analysis for arbitrated designs
//!
//! Statically checks a complete arbitrated design — the
//! [`ArbitrationPlan`] produced by `rcarb-core`'s insertion pass together
//! with its memory binding and channel merges — and reports structured
//! [`Diagnostic`]s through one [`AnalysisReport`]. Six check families:
//!
//! 1. **Bus contention** ([`contention`]): every generated arbiter FSM is
//!    explored state-by-state to prove no reachable transition grants two
//!    tasks at once on tri-stated lines (Fig. 3/4 semantics), and that
//!    grants only go to requesters.
//! 2. **Elision soundness** ([`elision`]): shared resources without an
//!    arbiter must have pairwise dependency-ordered accessors (Sec. 5).
//! 3. **Starvation** ([`starvation`]): transformed programs must follow
//!    the Fig. 8 protocol — granted before use, at most `M` accesses per
//!    hold, released on every path. The protocol checks run on the
//!    [`dataflow`] fixpoint engine over each program's control-flow
//!    graph, so holds may span loops and branches, and bounded-wait
//!    retry programs analyze path-sensitively instead of tripping
//!    phantom-hold false positives.
//! 4. **Netlist lints** ([`netlist`]): dead logic, constant registers and
//!    FSM defects (unreachable states, incomplete or overlapping guards),
//!    reported exhaustively rather than first-error.
//! 5. **Deadlock** ([`deadlock`]): the per-task lockset observations form
//!    a cross-task resource-wait graph; unbreakable circular waits among
//!    concurrent tasks are errors, timeout-breakable ones warnings.
//! 6. **Fairness** ([`fairness`]): per-arbiter certification of the
//!    paper's `(N-1)(M+2)` worst-case wait bound from statically
//!    computed hold windows.
//!
//! Hazard-claiming diagnostics carry a [`Witness`] — the decisive path
//! and the runtime watchdog violation it predicts — which [`replay`]
//! compiles into a directed simulation on both kernels to confirm the
//! finding dynamically. Reports are [`AnalysisReport::normalize`]d, so
//! output order is deterministic regardless of check scheduling.
//!
//! ```
//! use rcarb_analyze::{AnalyzeConfig, AnalyzePlan};
//! use rcarb_core::channel::ChannelMergePlan;
//! use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
//! use rcarb_core::memmap::bind_segments;
//! use rcarb_taskgraph::builder::TaskGraphBuilder;
//! use rcarb_taskgraph::program::{Expr, Program};
//!
//! let mut b = TaskGraphBuilder::new("demo");
//! let m1 = b.segment("M1", 512, 16);
//! let m2 = b.segment("M2", 512, 16);
//! b.task("T1", Program::build(|p| p.mem_write(m1, Expr::lit(0), Expr::lit(1))));
//! b.task("T2", Program::build(|p| { let _ = p.mem_read(m2, Expr::lit(0)); }));
//! let graph = b.finish().unwrap();
//! let board = rcarb_board::presets::duo_small();
//! let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
//! let merges = ChannelMergePlan::default();
//! let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
//! let report = plan.analyze(&binding, &merges, &AnalyzeConfig::default());
//! assert!(report.is_clean(), "{}", report.render_text());
//! ```

pub mod contention;
pub mod dataflow;
pub mod deadlock;
pub mod diag;
pub mod elision;
pub mod fairness;
mod lockset;
pub mod netlist;
pub mod replay;
pub mod report;
pub mod starvation;

pub use diag::{DiagCode, Diagnostic, Severity, Witness};
pub use lockset::WaitEdge;
pub use replay::{replay_all, replay_diagnostic, ReplayOutcome};
pub use report::AnalysisReport;

use rcarb_core::channel::ChannelMergePlan;
use rcarb_core::generator::{ArbiterGenerator, ArbiterSpec};
use rcarb_core::insertion::ArbitrationPlan;
use rcarb_core::line::MemoryLinePlan;
use rcarb_core::memmap::MemoryBinding;
use rcarb_logic::encode::EncodingStyle;
use rcarb_logic::tools::ToolModel;

/// Analyzer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// The Fig. 8 burst window `M` the design is expected to honour;
    /// holds with more accesses report [`DiagCode::BurstExceeded`].
    pub max_burst: u32,
    /// Shared-line plan of the guarded memory banks (decides whether a
    /// double grant is a tri-state conflict or a resolved-line overlap).
    pub lines: MemoryLinePlan,
    /// FSM encoding used when synthesizing arbiter netlists for linting.
    pub encoding: EncodingStyle,
    /// Also synthesize and lint each arbiter's mapped netlist (slower;
    /// the symbolic FSM checks run regardless).
    pub lint_netlists: bool,
}

impl AnalyzeConfig {
    /// The paper's configuration: `M = 2`, write-on-high SRAM banks,
    /// one-hot encoding, netlist lints on.
    pub fn paper() -> Self {
        Self {
            max_burst: 2,
            lines: MemoryLinePlan::sram_write_high(),
            encoding: EncodingStyle::OneHot,
            lint_netlists: true,
        }
    }

    /// Sets the expected burst window `M`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn with_max_burst(mut self, m: u32) -> Self {
        assert!(m > 0, "burst window must be at least one access");
        self.max_burst = m;
        self
    }

    /// Enables or disables the per-arbiter netlist lints.
    #[must_use]
    pub fn with_netlist_lints(mut self, enabled: bool) -> Self {
        self.lint_netlists = enabled;
        self
    }
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One independent unit of analysis work: an arbiter's FSM/netlist
/// checks, or one of the whole-plan check families.
#[derive(Debug, Clone, Copy)]
enum CheckJob {
    /// Families 1 + 4 for `plan.arbiters[i]`.
    Arbiter(usize),
    /// Family 2: elision soundness.
    Elision,
    /// Family 3: protocol shape and starvation windows.
    Starvation,
    /// Family 5: cross-task circular-wait detection.
    Deadlock,
    /// Family 6: static certification of the fairness bound.
    Fairness,
}

/// The shared, read-only inputs every check job sees.
struct CheckCtx {
    plan: ArbitrationPlan,
    binding: MemoryBinding,
    merges: ChannelMergePlan,
    config: AnalyzeConfig,
}

fn run_check(ctx: &CheckCtx, job: CheckJob) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    match job {
        CheckJob::Arbiter(i) => {
            let arb = &ctx.plan.arbiters[i];
            if arb.inputs == 0 || arb.inputs > 32 {
                // Shape errors are reported by the starvation family;
                // there is no FSM to explore.
                return report;
            }
            let generated = ArbiterGenerator::new()
                .generate(&ArbiterSpec::round_robin(arb.inputs).with_encoding(ctx.config.encoding));
            let name = format!("{} ({})", arb.name(), arb.resource);
            report.extend(contention::check_grant_fsm(
                generated.fsm(),
                &name,
                &ctx.config.lines,
            ));
            report.extend(netlist::check_fsm(generated.fsm(), &name));
            if ctx.config.lint_netlists {
                let synth = generated.synthesize(&ToolModel::synplify());
                report.extend(netlist::check_netlist(&synth.netlist, &name));
            }
        }
        CheckJob::Elision => {
            report.extend(elision::check_elision(&ctx.plan, &ctx.binding, &ctx.merges));
        }
        CheckJob::Starvation => {
            report.extend(starvation::check_starvation(
                &ctx.plan,
                &ctx.binding,
                &ctx.merges,
                &ctx.config,
            ));
        }
        CheckJob::Deadlock => {
            report.extend(deadlock::check_deadlock(
                &ctx.plan,
                &ctx.binding,
                &ctx.merges,
                &ctx.config,
            ));
        }
        CheckJob::Fairness => {
            report.extend(fairness::check_fairness(
                &ctx.plan,
                &ctx.binding,
                &ctx.merges,
                &ctx.config,
            ));
        }
    }
    report
}

fn check_jobs(plan: &ArbitrationPlan) -> Vec<CheckJob> {
    (0..plan.arbiters.len())
        .map(CheckJob::Arbiter)
        .chain([
            CheckJob::Elision,
            CheckJob::Starvation,
            CheckJob::Deadlock,
            CheckJob::Fairness,
        ])
        .collect()
}

/// Analyzes a complete arbitrated design.
///
/// `binding` and `merges` must be the same inputs the insertion pass ran
/// with — they decide which resources are shared and by whom.
///
/// Each check family — and within family 1/4 each arbiter — runs as an
/// independent job on the workspace thread pool; the per-job reports are
/// merged in check order, so the result is byte-identical to the
/// sequential [`analyze_plan_seq`] reference.
pub fn analyze_plan(
    plan: &ArbitrationPlan,
    binding: &MemoryBinding,
    merges: &ChannelMergePlan,
    config: &AnalyzeConfig,
) -> AnalysisReport {
    let jobs = check_jobs(plan);
    let ctx = std::sync::Arc::new(CheckCtx {
        plan: plan.clone(),
        binding: binding.clone(),
        merges: merges.clone(),
        config: config.clone(),
    });
    let reports = rcarb_exec::global_pool().parallel_map(jobs, move |job| run_check(&ctx, job));
    let mut report = AnalysisReport::new();
    for r in reports {
        report.merge(r);
    }
    report.normalize();
    report
}

/// The single-threaded reference analyzer, kept as the determinism
/// baseline for [`analyze_plan`].
pub fn analyze_plan_seq(
    plan: &ArbitrationPlan,
    binding: &MemoryBinding,
    merges: &ChannelMergePlan,
    config: &AnalyzeConfig,
) -> AnalysisReport {
    let ctx = CheckCtx {
        plan: plan.clone(),
        binding: binding.clone(),
        merges: merges.clone(),
        config: config.clone(),
    };
    let mut report = AnalysisReport::new();
    for job in check_jobs(plan) {
        report.merge(run_check(&ctx, job));
    }
    report.normalize();
    report
}

/// The `analyze()` hook for [`ArbitrationPlan`] (an extension trait, since
/// `rcarb-core` cannot depend on this crate).
pub trait AnalyzePlan {
    /// Runs the full analyzer over this plan.
    fn analyze(
        &self,
        binding: &MemoryBinding,
        merges: &ChannelMergePlan,
        config: &AnalyzeConfig,
    ) -> AnalysisReport;
}

impl AnalyzePlan for ArbitrationPlan {
    fn analyze(
        &self,
        binding: &MemoryBinding,
        merges: &ChannelMergePlan,
        config: &AnalyzeConfig,
    ) -> AnalysisReport {
        analyze_plan(self, binding, merges, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_board::presets;
    use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
    use rcarb_core::memmap::bind_segments;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::program::{Expr, Program};

    fn arbitrated_design() -> (ArbitrationPlan, MemoryBinding) {
        let mut b = TaskGraphBuilder::new("d");
        let m1 = b.segment("M1", 1024, 16);
        let m2 = b.segment("M2", 1024, 16);
        b.task(
            "T1",
            Program::build(|p| {
                p.mem_write(m1, Expr::lit(0), Expr::lit(1));
                p.mem_write(m1, Expr::lit(1), Expr::lit(2));
            }),
        );
        b.task(
            "T2",
            Program::build(|p| {
                let _ = p.mem_read(m2, Expr::lit(0));
            }),
        );
        let graph = b.finish().unwrap();
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let plan = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper(),
        );
        (plan, binding)
    }

    #[test]
    fn clean_design_analyzes_clean() {
        let (plan, binding) = arbitrated_design();
        let report = plan.analyze(
            &binding,
            &ChannelMergePlan::default(),
            &AnalyzeConfig::default(),
        );
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.num_errors(), 0);
    }

    #[test]
    fn mutated_design_fails_with_specific_codes() {
        let (mut plan, binding) = arbitrated_design();
        plan.arbiters.clear();
        let report = plan.analyze(
            &binding,
            &ChannelMergePlan::default(),
            &AnalyzeConfig::default(),
        );
        assert!(!report.is_clean());
        assert!(report.has_code(DiagCode::UnsoundElision));
        // The transformed programs now reference a vanished arbiter.
        assert!(report.has_code(DiagCode::UnknownArbiter));
    }

    #[test]
    fn parallel_analysis_matches_sequential_exactly() {
        let (plan, binding) = arbitrated_design();
        let merges = ChannelMergePlan::default();
        let config = AnalyzeConfig::default();
        let par = analyze_plan(&plan, &binding, &merges, &config);
        let seq = analyze_plan_seq(&plan, &binding, &merges, &config);
        assert_eq!(par, seq);
        assert_eq!(par.render_text(), seq.render_text());

        // Also on a broken plan, where diagnostics actually fire.
        let mut broken = plan;
        broken.arbiters.clear();
        let par = analyze_plan(&broken, &binding, &merges, &config);
        let seq = analyze_plan_seq(&broken, &binding, &merges, &config);
        assert!(!par.is_clean());
        assert_eq!(par, seq);
    }

    #[test]
    fn netlist_lints_can_be_disabled() {
        let (plan, binding) = arbitrated_design();
        let fast = AnalyzeConfig::default().with_netlist_lints(false);
        let report = plan.analyze(&binding, &ChannelMergePlan::default(), &fast);
        assert!(report.is_clean(), "{}", report.render_text());
    }
}
