//! Static certification of the paper's `(N-1)(M+2)` fairness bound
//! (RCA6xx).
//!
//! Behind an `N`-port round-robin arbiter whose clients each hold the
//! resource for at most `M` accesses, no conforming requester ever
//! waits more than `(N-1)(M+2)` cycles — every competitor ahead of it
//! in the rotation costs at most one `M`-access hold plus the two
//! protocol cycles (the paper's Sec. 4 argument, cross-checked at
//! runtime by the simulator's `WatchdogConfig::fairness_m` watchdog).
//! The bound therefore holds *iff* every client's worst-case
//! single-hold access window is at most `M`.
//!
//! This module computes that window per task and arbiter by structural
//! abstract interpretation of the program tree: loops multiply the
//! per-iteration growth of any hold carried across them by the trip
//! count (saturating at a ceiling), branches take the per-arbiter
//! maximum of both arms. Three verdicts per contended arbiter:
//!
//! - window ≤ `M` for every client — [`DiagCode::FairnessCertified`]
//!   (info): the bound `(N-1)(M+2)` is proved, and the runtime
//!   watchdog may enforce it;
//! - some finite window exceeds `M` — [`DiagCode::FairnessRefuted`]
//!   (error), with a witness a directed simulation replays into a
//!   `FairnessBreach` against the claimed bound;
//! - a window saturates the ceiling — [`DiagCode::FairnessUnprovable`]
//!   (warning): the certifier cannot bound the hold.
//!
//! Arbiters with fewer than two ports are skipped (nothing competes),
//! as are clients on the bypass list (the elision checks own their
//! soundness).

use crate::diag::{DiagCode, Diagnostic, Witness};
use crate::lockset::GuardMap;
use crate::AnalyzeConfig;
use rcarb_core::insertion::ArbitrationPlan;
use rcarb_taskgraph::id::{ArbiterId, TaskId};
use rcarb_taskgraph::program::Op;
use std::collections::BTreeMap;

/// Saturation ceiling for hold windows; a window this large is treated
/// as unbounded (RCA601) rather than refuted with a bogus number.
pub(crate) const WINDOW_TOP: u64 = 1 << 20;

fn bump(max: &mut BTreeMap<ArbiterId, u64>, arbiter: ArbiterId, window: u64) {
    let e = max.entry(arbiter).or_insert(0);
    *e = (*e).max(window);
}

/// Walks `ops`, tracking the access count of every open hold in
/// `state` and folding the per-(task, arbiter) worst window into
/// `max`.
fn walk(
    ops: &[Op],
    guards: &GuardMap,
    task: TaskId,
    state: &mut BTreeMap<ArbiterId, u64>,
    max: &mut BTreeMap<ArbiterId, u64>,
) {
    for op in ops {
        match op {
            Op::ReqAssert { arbiter } => {
                state.insert(*arbiter, 0);
            }
            Op::ReqDeassert { arbiter } => {
                state.remove(arbiter);
            }
            Op::Repeat { times, body } => {
                if *times == 0 {
                    continue;
                }
                // One pass measures the per-iteration growth of every
                // hold carried across the loop; the remaining
                // iterations multiply it. Holds opened and closed
                // inside the body are measured exactly by the single
                // pass (each iteration is a fresh hold).
                let before = state.clone();
                walk(body, guards, task, state, max);
                for (&a, after) in state.iter_mut() {
                    if let Some(&b) = before.get(&a) {
                        let growth = after.saturating_sub(b);
                        if growth > 0 && *times > 1 {
                            *after = after
                                .saturating_add(growth.saturating_mul(u64::from(*times) - 1))
                                .min(WINDOW_TOP);
                            bump(max, a, *after);
                        }
                    }
                }
            }
            Op::IfNonZero {
                then_ops, else_ops, ..
            } => {
                let mut else_state = state.clone();
                walk(then_ops, guards, task, state, max);
                walk(else_ops, guards, task, &mut else_state, max);
                // Per-arbiter worst of the two arms; a hold released
                // on one arm only stays open (conservative).
                for (&a, &w) in &else_state {
                    state.entry(a).and_modify(|s| *s = (*s).max(w)).or_insert(w);
                }
            }
            access => {
                if let Some(arb) = guards.guard_of(access) {
                    if guards.is_bypass(arb, task) {
                        continue;
                    }
                    if let Some(c) = state.get_mut(&arb) {
                        *c = c.saturating_add(1).min(WINDOW_TOP);
                        bump(max, arb, *c);
                    }
                }
            }
        }
    }
}

/// Certifies or refutes the `(N-1)(M+2)` bound per contended arbiter.
pub(crate) fn check_fairness(
    plan: &ArbitrationPlan,
    guards: &GuardMap,
    config: &AnalyzeConfig,
) -> Vec<Diagnostic> {
    // Worst single-hold window per arbiter, with the task achieving it.
    let mut worst: BTreeMap<ArbiterId, (u64, TaskId)> = BTreeMap::new();
    for task in plan.graph.tasks() {
        let mut state = BTreeMap::new();
        let mut max = BTreeMap::new();
        walk(
            task.program().ops(),
            guards,
            task.id(),
            &mut state,
            &mut max,
        );
        for (a, w) in max {
            worst
                .entry(a)
                .and_modify(|e| {
                    if w > e.0 {
                        *e = (w, task.id());
                    }
                })
                .or_insert((w, task.id()));
        }
    }

    let m = u64::from(config.max_burst);
    let mut diags = Vec::new();
    for arb in &plan.arbiters {
        if arb.inputs < 2 {
            continue;
        }
        let n = arb.inputs as u64;
        let bound = (n - 1) * (m + 2);
        let loc = format!("arbiter {} ({})", arb.name(), arb.resource);
        match worst.get(&arb.id) {
            // No protocol hold ever accesses the resource (e.g. all
            // clients bypass): nothing to certify here.
            None => {}
            Some(&(w, _)) if w >= WINDOW_TOP => diags.push(
                Diagnostic::new(
                    DiagCode::FairnessUnprovable,
                    loc,
                    format!(
                        "a hold's access window cannot be statically bounded; the \
                         (N-1)(M+2) = {bound} cycle wait bound is unverified"
                    ),
                )
                .with_help("bound the loops inside the hold, or release between iterations"),
            ),
            Some(&(w, task)) if w > m => diags.push(
                Diagnostic::new(
                    DiagCode::FairnessRefuted,
                    loc,
                    format!(
                        "task {} holds for {w} accesses in one grant (> M = {m}); a \
                         competitor can wait past the certified (N-1)(M+2) = {bound} cycles",
                        plan.graph.task(task).name()
                    ),
                )
                .with_help(
                    "split the burst so every hold stays within M accesses, or certify \
                     against the larger M actually used",
                )
                .with_witness(
                    Witness::expecting("fairness_breach")
                        .for_task(task)
                        .for_arbiter(arb.id)
                        .along(vec![format!(
                            "one hold on {} performs {w} accesses",
                            arb.name()
                        )]),
                ),
            ),
            Some(_) => diags.push(Diagnostic::new(
                DiagCode::FairnessCertified,
                loc,
                format!(
                    "every hold stays within M = {m} accesses; no client of this \
                     {n}-port arbiter waits more than (N-1)(M+2) = {bound} cycles"
                ),
            )),
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_board::presets;
    use rcarb_core::channel::ChannelMergePlan;
    use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
    use rcarb_core::memmap::{bind_segments, MemoryBinding};
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::graph::TaskGraph;
    use rcarb_taskgraph::program::{Expr, Program};

    fn contended_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("g");
        let m1 = b.segment("M1", 1024, 16);
        let m2 = b.segment("M2", 1024, 16);
        b.task(
            "T1",
            Program::build(|p| {
                for i in 0..6 {
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

    fn plan_with_m(m: u32) -> (ArbitrationPlan, MemoryBinding) {
        let graph = contended_graph();
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let plan = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper().with_max_burst(m),
        );
        (plan, binding)
    }

    fn run(plan: &ArbitrationPlan, binding: &MemoryBinding, m: u32) -> Vec<Diagnostic> {
        check_fairness(
            plan,
            &GuardMap::new(plan, binding, &ChannelMergePlan::default()),
            &AnalyzeConfig::default().with_max_burst(m),
        )
    }

    #[test]
    fn conforming_plan_is_certified() {
        let (plan, binding) = plan_with_m(2);
        let diags = run(&plan, &binding, 2);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::FairnessCertified),
            "{diags:?}"
        );
        assert!(!diags.iter().any(|d| d.code == DiagCode::FairnessRefuted));
    }

    #[test]
    fn overlong_hold_refutes_the_bound_with_witness() {
        // Transformed for M = 4 but certified against M = 2: the
        // 4-access holds refute the claimed (N-1)(2+2) bound.
        let (plan, binding) = plan_with_m(4);
        let diags = run(&plan, &binding, 2);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::FairnessRefuted)
            .expect("must refute");
        let w = d.witness.as_ref().expect("RCA602 carries a witness");
        assert_eq!(w.expect, "fairness_breach");
        assert!(d.message.contains("(N-1)(M+2) = 4"));
    }

    #[test]
    fn loop_carried_hold_multiplies_the_window() {
        use rcarb_taskgraph::program::Op;
        let (mut plan, binding) = plan_with_m(2);
        let arb = plan.arbiters[0].id;
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        let m1 = plan.graph.segment_by_name("M1").unwrap().id();
        plan.graph.task_mut(t1).set_program(Program::build(|p| {
            p.push(Op::ReqAssert { arbiter: arb });
            p.push(Op::AwaitGrant { arbiter: arb });
            // 2 accesses x 5 iterations = a 10-access hold.
            p.repeat(5, |p| {
                p.mem_write(m1, Expr::lit(0), Expr::lit(1));
                p.mem_write(m1, Expr::lit(1), Expr::lit(2));
            });
            p.push(Op::ReqDeassert { arbiter: arb });
        }));
        let diags = run(&plan, &binding, 2);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::FairnessRefuted)
            .expect("must refute");
        assert!(d.message.contains("10 accesses"), "{}", d.message);
    }

    #[test]
    fn uncontended_arbiters_are_skipped() {
        let (mut plan, binding) = plan_with_m(2);
        plan.arbiters[0].inputs = 1;
        let diags = run(&plan, &binding, 2);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
