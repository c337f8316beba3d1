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
//! finding dynamically.
//!
//! [`analyze_plan`] runs the families one after another on the calling
//! thread and returns an [`AnalysisReport::normalize`]d report, so
//! output order depends only on the findings. It derives each fact
//! once: one lockset pass per task shared by the starvation and
//! deadlock families, one concurrency relation for every ordering
//! question, and one memoized verdict per arbiter shape (width,
//! encoding, line plan) for families 1 and 4, counted by
//! [`verdict_cache_stats`].
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

use lockset::GuardMap;
use rcarb_core::channel::ChannelMergePlan;
use rcarb_core::characterize;
use rcarb_core::generator::{ArbiterGenerator, ArbiterSpec};
use rcarb_core::insertion::{ArbiterInstance, ArbitrationPlan};
use rcarb_core::line::MemoryLinePlan;
use rcarb_core::memmap::MemoryBinding;
use rcarb_exec::{Cache, CacheStats};
use rcarb_logic::encode::EncodingStyle;
use rcarb_logic::fsm::Fsm;
use rcarb_logic::netlist::Netlist;
use rcarb_logic::tools::ToolModel;
use rcarb_taskgraph::concurrency::ConcurrencyRelation;
use std::sync::{Arc, OnceLock};

/// Analyzer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// The Fig. 8 burst window `M` the design is expected to honour;
    /// holds with more accesses report [`DiagCode::BurstExceeded`].
    pub max_burst: u32,
    /// Shared-line plan of the guarded memory banks (decides whether a
    /// double grant is a tri-state conflict or a resolved-line overlap).
    pub lines: MemoryLinePlan,
    /// FSM encoding of the arbiters whose state machines are explored.
    pub encoding: EncodingStyle,
}

impl AnalyzeConfig {
    /// The paper's configuration: `M = 2`, write-on-high SRAM banks,
    /// one-hot encoding.
    pub fn paper() -> Self {
        Self {
            max_burst: 2,
            lines: MemoryLinePlan::sram_write_high(),
            encoding: EncodingStyle::OneHot,
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
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// What decides an arbiter's family 1 and 4 findings: its width, the
/// FSM encoding and the shared-line plan. The round-robin FSM and its
/// Synplify netlist are pure functions of this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct VerdictKey {
    inputs: usize,
    encoding: EncodingStyle,
    lines: MemoryLinePlan,
}

/// The process-wide memo of arbiter verdicts. Its keys are bounded by
/// the synthesizer (N ≤ 21) times three encodings times the line plans,
/// so it never evicts.
fn verdict_cache() -> &'static Cache<VerdictKey, Arc<[Diagnostic]>> {
    static CACHE: OnceLock<Cache<VerdictKey, Arc<[Diagnostic]>>> = OnceLock::new();
    CACHE.get_or_init(Cache::new)
}

/// Hit/miss statistics of the process-wide arbiter-verdict memo that
/// [`analyze_plan`] consults once per arbiter.
pub fn verdict_cache_stats() -> CacheStats {
    verdict_cache().stats()
}

/// Drops every memoized arbiter verdict (counters are preserved), so a
/// test can count the misses of a cold analysis.
pub fn reset_verdict_cache() {
    verdict_cache().clear();
}

/// Families 1 and 4 for one arbiter named `name`: its FSM's grant
/// behaviour and FSM defects, then the lints of its netlist.
fn shape_checks(fsm: &Fsm, nl: &Netlist, name: &str, lines: &MemoryLinePlan) -> Vec<Diagnostic> {
    let mut diags = contention::check_grant_fsm(fsm, name, lines);
    diags.extend(netlist::check_fsm(fsm, name));
    diags.extend(netlist::check_netlist(nl, name));
    diags
}

/// The checks of one arbiter shape, with every location rendered under
/// the empty name. Its Synplify netlist is a synthesis-cache hit under
/// the paper config, because the insertion pass estimated the same
/// arbiter.
fn arbiter_verdict(key: &VerdictKey) -> Vec<Diagnostic> {
    let generated = ArbiterGenerator::new()
        .generate(&ArbiterSpec::round_robin(key.inputs).with_encoding(key.encoding));
    let synth = generated.synthesize(&ToolModel::synplify());
    shape_checks(generated.fsm(), &synth.netlist, "", &key.lines)
}

/// Fills `name` into a location rendered under the empty name. The
/// checks place the name right after their `arbiter`, `fsm` or
/// `netlist` prefix word, and nowhere else.
fn named(diag: &Diagnostic, name: &str) -> Diagnostic {
    let (prefix, rest) = diag
        .location
        .split_once(' ')
        .expect("arbiter locations start with a prefix word");
    Diagnostic {
        location: format!("{prefix} {name}{rest}"),
        ..diag.clone()
    }
}

/// Families 1 and 4 for one arbiter: its shape's memoized verdict,
/// named after the arbiter and the resource it guards.
fn check_arbiter(arb: &ArbiterInstance, config: &AnalyzeConfig) -> Vec<Diagnostic> {
    if !characterize::synplify_fits(arb.inputs) {
        // The starvation family reports the shape (RCA306); there is
        // no FSM to explore.
        return Vec::new();
    }
    let key = VerdictKey {
        inputs: arb.inputs,
        encoding: config.encoding,
        lines: config.lines,
    };
    let verdict = verdict_cache().get_or_insert_with(&key, || arbiter_verdict(&key).into());
    if verdict.is_empty() {
        return Vec::new();
    }
    let name = format!("{} ({})", arb.name(), arb.resource);
    verdict.iter().map(|d| named(d, &name)).collect()
}

/// Analyzes a complete arbitrated design.
///
/// `binding` and `merges` must be the same inputs the insertion pass ran
/// with — they decide which resources are shared and by whom.
///
/// The families run in turn: each arbiter's FSM and netlist checks,
/// then elision, starvation, deadlock and fairness. Each per-design fact
/// is derived once:
///
/// - an arbiter's FSM and netlist findings depend only on its width, the
///   encoding and the line plan, so they are computed once per shape and
///   process (see [`verdict_cache_stats`]) and named per arbiter;
/// - one [`ConcurrencyRelation`] answers every "are these tasks ordered?"
///   question of the elision and deadlock families;
/// - one lockset pass per task, over one guard map, feeds both the
///   starvation findings and the deadlock detector's wait edges.
///
/// The report is [`normalize`](AnalysisReport::normalize)d before it is
/// returned.
pub fn analyze_plan(
    plan: &ArbitrationPlan,
    binding: &MemoryBinding,
    merges: &ChannelMergePlan,
    config: &AnalyzeConfig,
) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    for arb in &plan.arbiters {
        report.extend(check_arbiter(arb, config));
    }
    let order = ConcurrencyRelation::compute(&plan.graph);
    report.extend(elision::check_elision(plan, binding, merges, &order));
    let guards = GuardMap::new(plan, binding, merges);
    let (starved, wait_edges) = starvation::check_starvation(plan, &guards, config);
    report.extend(starved);
    report.extend(deadlock::check_deadlock(plan, &wait_edges, &order));
    report.extend(fairness::check_fairness(plan, &guards, config));
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
    use rcarb_core::rr::round_robin_fsm;
    use rcarb_logic::cube::Cube;
    use rcarb_logic::fsm::Transition;
    use rcarb_logic::netlist::NetRef;
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
    fn a_verdict_named_after_the_fact_equals_the_checks_run_under_that_name() {
        // The Fig. 5 FSM for N = 3, broken: an unreachable state without
        // transitions, and a double grant on every request pattern of
        // the reset state. A netlist with a floating LUT, a constant LUT
        // and a register stuck at its placeholder D input.
        let mut fsm = round_robin_fsm(3);
        let _orphan = fsm.add_state("ORPHAN");
        let reset = fsm.reset_state();
        fsm.add_transition(Transition {
            from: reset,
            guard: Cube::universe(),
            to: reset,
            outputs: 0b011,
        });
        let mut nl = Netlist::new(2);
        let _dead = nl.add_node(vec![NetRef::Input(0)], 0b10);
        let c = nl.add_node(vec![NetRef::Input(0), NetRef::Input(1)], 0b1111);
        nl.push_output(c);
        let _r = nl.add_reg(false);
        let lines = MemoryLinePlan::default();

        let verdict = shape_checks(&fsm, &nl, "", &lines);
        for prefix in ["arbiter ", "fsm ", "netlist "] {
            assert!(
                verdict.iter().any(|d| d.location.starts_with(prefix)),
                "no `{prefix}` finding in {verdict:?}"
            );
        }
        assert!(verdict.iter().any(|d| d.code.as_str().starts_with("RCA1")));
        for name in ["Arb3 (bank B0)", "Arb3 (merged channel #1)"] {
            let filled: Vec<Diagnostic> = verdict.iter().map(|d| named(d, name)).collect();
            assert_eq!(filled, shape_checks(&fsm, &nl, name, &lines), "{name}");
        }
    }

    #[test]
    fn arbiter_wider_than_the_synthesizer_is_rca306_and_skips_its_fsm_checks() {
        // 22 inputs fit the FSM generator (1..=32) but not Synplify's
        // one-hot netlist (3 * 22 > 64 cube variables).
        let (mut plan, binding) = arbitrated_design();
        plan.arbiters[0].inputs = 22;
        let report = plan.analyze(
            &binding,
            &ChannelMergePlan::default(),
            &AnalyzeConfig::default(),
        );
        let wide = report.with_code(DiagCode::ArbiterTooWide);
        assert_eq!(wide.len(), 1, "{}", report.render_text());
        assert!(wide[0].message.starts_with("22 request inputs"));
        // No contention (RCA1xx) or FSM/netlist (RCA4xx) findings.
        assert!(
            report
                .diagnostics()
                .iter()
                .all(|d| !d.code.as_str().starts_with("RCA1")
                    && !d.code.as_str().starts_with("RCA4")),
            "{}",
            report.render_text()
        );
        assert!(characterize::synplify_fits(21));
        assert!(!characterize::synplify_fits(0));
        assert!(!characterize::synplify_fits(33));
    }
}
