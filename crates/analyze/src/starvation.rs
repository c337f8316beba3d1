//! Starvation and protocol-shape analysis of transformed task programs.
//!
//! Checks that every task program of an [`ArbitrationPlan`] speaks a
//! well-formed Fig. 8 protocol: each request hold is granted before
//! use, performs at most `M` accesses (the configured burst window — a
//! longer hold starves the other requesters past the paper's `(N-1)·M`
//! bound), and is released on every path out of the program. Arbiter
//! references must resolve to an inserted arbiter the task is a client
//! of, and the arbiter shapes themselves must be synthesizable.
//!
//! The per-task protocol checks are instances of the path-sensitive
//! `crate::lockset` dataflow analysis — holds may legally span loops
//! and branches as long as every path releases them, and bounded-wait
//! retry protocols (whose grants are conditional on an outcome
//! variable) analyze clean. This module runs that pass once per task
//! and hands its resource-wait edges on to [`crate::deadlock`]; only the
//! structural arbiter-shape checks (RCA306) are its own.

use crate::diag::{DiagCode, Diagnostic};
use crate::lockset::{analyze_task, GuardMap, WaitEdge};
use crate::AnalyzeConfig;
use rcarb_core::characterize::synplify_fits;
use rcarb_core::insertion::ArbitrationPlan;

/// Checks arbiter shapes and runs the lockset analysis over every
/// transformed program, once per task. Returns the findings plus the
/// resource-wait edges the pass observed (the deadlock detector's
/// input).
pub(crate) fn check_starvation(
    plan: &ArbitrationPlan,
    guards: &GuardMap,
    config: &AnalyzeConfig,
) -> (Vec<Diagnostic>, Vec<WaitEdge>) {
    let mut diags = Vec::new();

    for arb in &plan.arbiters {
        let loc = format!("arbiter {} ({})", arb.name(), arb.resource);
        // The netlist lint synthesizes each arbiter with Synplify, so an
        // arbiter outside that range has no FSM or netlist to check.
        if !synplify_fits(arb.inputs) {
            diags.push(
                Diagnostic::new(
                    DiagCode::ArbiterTooWide,
                    loc.clone(),
                    format!(
                        "{} request inputs cannot be synthesized (a round-robin arbiter needs at \
                         least one input, and its one-hot state bits plus inputs must fit 64 \
                         synthesis variables)",
                        arb.inputs
                    ),
                )
                .with_help("split the accessors across banks or enable Sec. 5 elision"),
            );
        } else if arb.ports.len() != arb.inputs {
            diags.push(Diagnostic::new(
                DiagCode::ArbiterTooWide,
                loc,
                format!(
                    "{} ports wired to a {}-input arbiter",
                    arb.ports.len(),
                    arb.inputs
                ),
            ));
        }
    }

    let mut wait_edges = Vec::new();
    for task in plan.graph.tasks() {
        let loc = format!("task {}", task.name());
        let protocol = analyze_task(plan, guards, config, task.id(), &loc);
        diags.extend(protocol.diags);
        wait_edges.extend(protocol.wait_edges);
    }
    (diags, wait_edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_board::presets;
    use rcarb_core::channel::ChannelMergePlan;
    use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
    use rcarb_core::memmap::{bind_segments, MemoryBinding};
    use rcarb_core::transform::RetryPolicy;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::graph::TaskGraph;
    use rcarb_taskgraph::program::{Expr, Op, Program};

    fn contended_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("g");
        let m1 = b.segment("M1", 1024, 16);
        let m2 = b.segment("M2", 1024, 16);
        b.task(
            "T1",
            Program::build(|p| {
                for i in 0..5 {
                    p.mem_write(m1, Expr::lit(i), Expr::lit(1));
                }
            }),
        );
        b.task(
            "T2",
            Program::build(|p| {
                let _ = p.mem_read(m2, Expr::lit(0));
            }),
        );
        b.finish().unwrap()
    }

    fn plan_for(graph: &TaskGraph) -> (ArbitrationPlan, MemoryBinding) {
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let plan = insert_arbiters(
            graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper(),
        );
        (plan, binding)
    }

    fn run(plan: &ArbitrationPlan, binding: &MemoryBinding) -> Vec<Diagnostic> {
        run_with(plan, binding, &AnalyzeConfig::default())
    }

    fn run_with(
        plan: &ArbitrationPlan,
        binding: &MemoryBinding,
        config: &AnalyzeConfig,
    ) -> Vec<Diagnostic> {
        let guards = GuardMap::new(plan, binding, &ChannelMergePlan::default());
        check_starvation(plan, &guards, config).0
    }

    #[test]
    fn transformed_programs_are_protocol_clean() {
        let (plan, binding) = plan_for(&contended_graph());
        let diags = run(&plan, &binding);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn retry_transformed_programs_are_protocol_clean() {
        // Bounded-wait retry programs guard their accesses behind the
        // grant outcome variable; the path-sensitive lockset must see
        // through the correlation instead of reporting phantom open
        // holds at the branch boundaries.
        let board = presets::duo_small();
        let graph = contended_graph();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let plan = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper().with_retry(RetryPolicy::new(8, 2, 4)),
        );
        let diags = run(&plan, &binding);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn holds_may_span_branches_when_released_on_every_path() {
        let (mut plan, binding) = plan_for(&contended_graph());
        let arb = plan.arbiters[0].id;
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        let m1 = plan.graph.segment_by_name("M1").unwrap().id();
        plan.graph.task_mut(t1).set_program(Program::build(|p| {
            let v = p.let_(Expr::lit(1));
            p.push(Op::ReqAssert { arbiter: arb });
            p.push(Op::AwaitGrant { arbiter: arb });
            p.if_else(
                Expr::var(v),
                |p| p.mem_write(m1, Expr::lit(0), Expr::lit(1)),
                |p| {
                    let _ = p.mem_read(m1, Expr::lit(1));
                },
            );
            p.push(Op::ReqDeassert { arbiter: arb });
        }));
        let diags = run(&plan, &binding);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn hold_leaked_on_one_path_is_rca302_with_witness() {
        let (mut plan, binding) = plan_for(&contended_graph());
        let arb = plan.arbiters[0].id;
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        let m1 = plan.graph.segment_by_name("M1").unwrap().id();
        plan.graph.task_mut(t1).set_program(Program::build(|p| {
            let v = p.let_(Expr::add(Expr::lit(1), Expr::lit(1)));
            p.push(Op::ReqAssert { arbiter: arb });
            p.push(Op::AwaitGrant { arbiter: arb });
            p.mem_write(m1, Expr::lit(0), Expr::lit(1));
            // Only the then-path releases: the else-path leaks.
            p.if_else(
                Expr::var(v),
                |p| p.push(Op::ReqDeassert { arbiter: arb }),
                |p| p.compute(1),
            );
        }));
        let diags = run(&plan, &binding);
        let leak = diags
            .iter()
            .find(|d| d.code == DiagCode::MissingRelease)
            .expect("leaked hold must be RCA302");
        let w = leak.witness.as_ref().expect("RCA302 carries a witness");
        assert_eq!(w.expect, "grant_timeout");
        assert!(
            w.path.iter().any(|s| s.contains("not taken")),
            "witness must name the leaking path: {:?}",
            w.path
        );
    }

    /// Strips every `ReqDeassert` from a program, recursively.
    fn strip_releases(ops: &[Op]) -> Vec<Op> {
        ops.iter()
            .filter(|op| !matches!(op, Op::ReqDeassert { .. }))
            .map(|op| match op {
                Op::Repeat { times, body } => Op::Repeat {
                    times: *times,
                    body: strip_releases(body),
                },
                Op::IfNonZero {
                    cond,
                    then_ops,
                    else_ops,
                } => Op::IfNonZero {
                    cond: cond.clone(),
                    then_ops: strip_releases(then_ops),
                    else_ops: strip_releases(else_ops),
                },
                other => other.clone(),
            })
            .collect()
    }

    #[test]
    fn stripped_release_is_rca302() {
        let (mut plan, binding) = plan_for(&contended_graph());
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        let stripped = Program::from_ops(strip_releases(plan.graph.task(t1).program().ops()));
        plan.graph.task_mut(t1).set_program(stripped);
        let diags = run(&plan, &binding);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::MissingRelease),
            "{diags:?}"
        );
        // With releases gone, later batches re-request inside the hold.
        assert!(diags.iter().any(|d| d.code == DiagCode::NestedHold));
    }

    #[test]
    fn overlong_burst_is_rca301() {
        // Re-analyze a plan transformed with M = 4 against a config
        // expecting M = 2: every 4-access hold now exceeds the window.
        let board = presets::duo_small();
        let graph = contended_graph();
        let binding2 = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let wide = insert_arbiters(
            &graph,
            &binding2,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper().with_max_burst(4),
        );
        let diags = run_with(
            &wide,
            &binding2,
            &AnalyzeConfig::default().with_max_burst(2),
        );
        assert!(
            diags.iter().any(|d| d.code == DiagCode::BurstExceeded),
            "{diags:?}"
        );
        // The same plan is clean under its own window.
        let ok = run_with(
            &wide,
            &binding2,
            &AnalyzeConfig::default().with_max_burst(4),
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn burst_inside_hold_spanning_a_loop_is_rca301() {
        // A granted hold carried around a loop accumulates accesses
        // without bound; the widening must surface the breach even
        // though no single straight-line block exceeds M.
        let (mut plan, binding) = plan_for(&contended_graph());
        let arb = plan.arbiters[0].id;
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        let m1 = plan.graph.segment_by_name("M1").unwrap().id();
        plan.graph.task_mut(t1).set_program(Program::build(|p| {
            p.push(Op::ReqAssert { arbiter: arb });
            p.push(Op::AwaitGrant { arbiter: arb });
            p.repeat(8, |p| p.mem_write(m1, Expr::lit(0), Expr::lit(1)));
            p.push(Op::ReqDeassert { arbiter: arb });
        }));
        let diags = run(&plan, &binding);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::BurstExceeded),
            "{diags:?}"
        );
    }

    #[test]
    fn unguarded_access_is_rca305() {
        let (mut plan, binding) = plan_for(&contended_graph());
        // Replace T1's program with raw, unprotected writes.
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        let m1 = plan.graph.segment_by_name("M1").unwrap().id();
        plan.graph.task_mut(t1).set_program(Program::build(|p| {
            p.mem_write(m1, Expr::lit(0), Expr::lit(1));
        }));
        let diags = run(&plan, &binding);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::UnguardedAccess),
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_arbiter_is_rca304() {
        let (mut plan, binding) = plan_for(&contended_graph());
        let t2 = plan.graph.task_by_name("T2").unwrap().id();
        let mut ops = plan.graph.task(t2).program().ops().to_vec();
        ops.insert(
            0,
            Op::ReqAssert {
                arbiter: rcarb_taskgraph::id::ArbiterId::new(9),
            },
        );
        ops.push(Op::ReqDeassert {
            arbiter: rcarb_taskgraph::id::ArbiterId::new(9),
        });
        plan.graph.task_mut(t2).set_program(Program::from_ops(ops));
        let diags = run(&plan, &binding);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::UnknownArbiter),
            "{diags:?}"
        );
    }

    #[test]
    fn stray_wait_and_release_are_reported() {
        let (mut plan, binding) = plan_for(&contended_graph());
        let arb = plan.arbiters[0].id;
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        plan.graph.task_mut(t1).set_program(Program::from_ops(vec![
            Op::AwaitGrant { arbiter: arb },
            Op::ReqDeassert { arbiter: arb },
        ]));
        let diags = run(&plan, &binding);
        assert!(diags
            .iter()
            .any(|d| d.code == DiagCode::AwaitWithoutRequest));
        assert!(diags.iter().any(|d| d.code == DiagCode::OrphanRelease));
    }

    #[test]
    fn oversized_arbiter_is_rca306() {
        let (mut plan, binding) = plan_for(&contended_graph());
        plan.arbiters[0].inputs = 40;
        let diags = run(&plan, &binding);
        assert!(diags.iter().any(|d| d.code == DiagCode::ArbiterTooWide));
    }

    #[test]
    fn bypass_tasks_access_directly_without_findings() {
        let (mut plan, binding) = plan_for(&contended_graph());
        // Move T2 to the bypass set and give it its untransformed program.
        let t2 = plan.graph.task_by_name("T2").unwrap().id();
        let m2 = plan.graph.segment_by_name("M2").unwrap().id();
        plan.arbiters[0].bypass.push(t2);
        plan.graph.task_mut(t2).set_program(Program::build(|p| {
            let _ = p.mem_read(m2, Expr::lit(0));
        }));
        let diags = run(&plan, &binding);
        // No RCA305 for the bypassing task (RCA202 soundness is the
        // elision check's business, not this walker's).
        assert!(
            !diags.iter().any(|d| d.code == DiagCode::UnguardedAccess),
            "{diags:?}"
        );
    }
}
