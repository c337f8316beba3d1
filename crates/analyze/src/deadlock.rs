//! Cross-task deadlock detection over the resource-wait graph (RCA5xx).
//!
//! The lockset pass (run once per task by the starvation family)
//! records every program point where a grant is awaited while another
//! arbiter is still held ([`WaitEdge`]). Those observations form a directed graph whose
//! nodes are arbiters: an edge `a → b` means *some task can sit on a
//! grant wait for `b` while holding `a`*. A cycle in that graph —
//! carried by tasks that may run concurrently (no dependency ordering)
//! — is the classic circular-wait condition: each participant holds
//! what the next one needs, every wait is unbounded, and the runtime's
//! only recourse is the no-progress watchdog.
//!
//! Cycles whose waits are all unbounded report
//! [`DiagCode::DeadlockCycle`] (error) with a replayable witness
//! expecting a `NoProgress` violation. A cycle containing at least one
//! *bounded* wait (`AwaitGrantFor`) cannot wedge permanently — the
//! timeout breaks the wait — but can livelock under repeated retries,
//! so it reports [`DiagCode::LivelockRisk`] (warning) instead.
//!
//! Only *minimal* cycles are reported (no cycle that merely embeds a
//! smaller reported one), each once, rotated to start at its smallest
//! arbiter id so output is deterministic.

use crate::diag::{DiagCode, Diagnostic, Witness};
use crate::lockset::WaitEdge;
use rcarb_core::insertion::ArbitrationPlan;
use rcarb_taskgraph::concurrency::ConcurrencyRelation;
use rcarb_taskgraph::id::ArbiterId;
use std::collections::{BTreeMap, BTreeSet};

/// Longest simple cycle searched for; real designs hold two or three
/// arbiters at once, so this is a defensive ceiling, not a tuning knob.
const MAX_CYCLE_LEN: usize = 8;

fn arbiter_name(plan: &ArbitrationPlan, id: ArbiterId) -> String {
    plan.arbiters
        .iter()
        .find(|a| a.id == id)
        .map(|a| a.name())
        .unwrap_or_else(|| id.to_string())
}

/// Enumerates simple cycles of the wait graph up to [`MAX_CYCLE_LEN`],
/// each rotated to start at its minimal node: a DFS from every node
/// `s` that only visits nodes `≥ s`, so each cycle is found exactly
/// once (at its minimal member).
fn find_cycles(adj: &BTreeMap<ArbiterId, BTreeSet<ArbiterId>>) -> Vec<Vec<ArbiterId>> {
    let mut cycles = Vec::new();
    for &start in adj.keys() {
        let mut stack = vec![start];
        let mut on_stack: BTreeSet<ArbiterId> = [start].into();
        dfs(adj, start, &mut stack, &mut on_stack, &mut cycles);
    }
    cycles
}

fn dfs(
    adj: &BTreeMap<ArbiterId, BTreeSet<ArbiterId>>,
    start: ArbiterId,
    stack: &mut Vec<ArbiterId>,
    on_stack: &mut BTreeSet<ArbiterId>,
    cycles: &mut Vec<Vec<ArbiterId>>,
) {
    let here = *stack.last().expect("non-empty DFS stack");
    let Some(succs) = adj.get(&here) else {
        return;
    };
    for &next in succs {
        if next == start && stack.len() >= 2 {
            cycles.push(stack.clone());
        } else if next > start && !on_stack.contains(&next) && stack.len() < MAX_CYCLE_LEN {
            stack.push(next);
            on_stack.insert(next);
            dfs(adj, start, stack, on_stack, cycles);
            on_stack.remove(&next);
            stack.pop();
        }
    }
}

/// Detects circular waits across tasks (RCA501/RCA502) in the wait
/// edges the lockset pass observed, in task order.
/// `order` is the concurrency relation of `plan.graph`.
pub(crate) fn check_deadlock(
    plan: &ArbitrationPlan,
    edges: &[WaitEdge],
    order: &ConcurrencyRelation,
) -> Vec<Diagnostic> {
    if edges.is_empty() {
        return Vec::new();
    }

    // Adjacency plus one representative observation per graph edge
    // (the first in task order — deterministic, since tasks and blocks
    // are walked in order).
    let mut adj: BTreeMap<ArbiterId, BTreeSet<ArbiterId>> = BTreeMap::new();
    let mut witness_edge: BTreeMap<(ArbiterId, ArbiterId), &WaitEdge> = BTreeMap::new();
    let mut all_bounded: BTreeMap<(ArbiterId, ArbiterId), bool> = BTreeMap::new();
    for e in edges {
        adj.entry(e.holding).or_default().insert(e.awaiting);
        witness_edge.entry((e.holding, e.awaiting)).or_insert(e);
        // An edge is only "safe" when *every* observation of it is a
        // bounded wait.
        all_bounded
            .entry((e.holding, e.awaiting))
            .and_modify(|b| *b &= e.bounded)
            .or_insert(e.bounded);
    }

    let mut diags = Vec::new();
    let mut reported: Vec<BTreeSet<ArbiterId>> = Vec::new();
    for cycle in find_cycles(&adj) {
        let members: BTreeSet<ArbiterId> = cycle.iter().copied().collect();
        // Minimality: skip cycles that contain an already-reported one.
        if reported.iter().any(|r| r.is_subset(&members)) {
            continue;
        }

        let cycle_edges: Vec<&WaitEdge> = cycle
            .iter()
            .enumerate()
            .map(|(i, &a)| witness_edge[&(a, cycle[(i + 1) % cycle.len()])])
            .collect();

        // A single task cannot deadlock with itself (it is sequential),
        // and dependency-ordered tasks never run concurrently.
        let tasks: BTreeSet<_> = cycle_edges.iter().map(|e| e.task).collect();
        if tasks.len() < 2 {
            continue;
        }
        let tasks: Vec<_> = tasks.into_iter().collect();
        let concurrent = tasks.iter().enumerate().all(|(i, &a)| {
            tasks[i + 1..]
                .iter()
                .all(|&b| order.may_run_concurrently(a, b))
        });
        if !concurrent {
            continue;
        }
        reported.push(members);

        let ring = cycle
            .iter()
            .map(|&a| arbiter_name(plan, a))
            .collect::<Vec<_>>()
            .join(" -> ");
        let holders = cycle_edges
            .iter()
            .map(|e| {
                format!(
                    "{} holds {} awaiting {}",
                    plan.graph.task(e.task).name(),
                    arbiter_name(plan, e.holding),
                    arbiter_name(plan, e.awaiting)
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        let breakable = cycle_edges
            .iter()
            .any(|e| all_bounded[&(e.holding, e.awaiting)]);
        let loc = format!("arbiters {ring} -> {}", arbiter_name(plan, cycle[0]));
        if breakable {
            diags.push(
                Diagnostic::new(
                    DiagCode::LivelockRisk,
                    loc,
                    format!(
                        "circular wait {holders}; a bounded wait breaks the cycle, but \
                         repeated timeouts can livelock"
                    ),
                )
                .with_help("stagger the retry windows or acquire the arbiters in one global order"),
            );
        } else {
            let first = cycle_edges[0];
            diags.push(
                Diagnostic::new(
                    DiagCode::DeadlockCycle,
                    loc,
                    format!("circular wait with no timeout: {holders}; all parties wedge"),
                )
                .with_help(
                    "acquire arbiters in one global order, or bound the waits with a retry \
                     policy",
                )
                .with_witness(
                    Witness::expecting("no_progress")
                        .for_task(first.task)
                        .for_arbiter(first.awaiting)
                        .along(first.path.clone()),
                ),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockset::GuardMap;
    use crate::starvation::check_starvation;
    use crate::AnalyzeConfig;
    use rcarb_board::presets;
    use rcarb_core::channel::ChannelMergePlan;
    use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
    use rcarb_core::memmap::{bind_segments, MemoryBinding};
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::id::VarId;
    use rcarb_taskgraph::program::{Expr, Op, Program};

    /// Two tasks, two banks, opposite acquisition order. `ordered`
    /// adds a control dependency that serializes them (no deadlock).
    fn cross_order_plan(
        ordered: bool,
        bounded: bool,
    ) -> (ArbitrationPlan, MemoryBinding, ChannelMergePlan) {
        let mut b = TaskGraphBuilder::new("dl");
        let m1 = b.segment("M1", 64, 16);
        let m2 = b.segment("M2", 64, 16);
        // Both tasks touch both segments so insertion wires both onto
        // both arbiters; the programs are replaced below.
        let mk = |p: &mut rcarb_taskgraph::program::ProgramBuilder| {
            p.mem_write(m1, Expr::lit(0), Expr::lit(1));
            p.mem_write(m2, Expr::lit(0), Expr::lit(1));
        };
        let t1 = b.task("T1", Program::build(mk));
        let t2 = b.task("T2", Program::build(mk));
        if ordered {
            b.control_dep(t1, t2);
        }
        let graph = b.finish().unwrap();
        // quad_large has spare banks, so the L <= P rule places each
        // segment on its own bank: two arbiters.
        let board = presets::quad_large();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let merges = ChannelMergePlan::default();
        let mut plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
        let arb_of = |plan: &ArbitrationPlan, seg| {
            plan.arbiter_for(rcarb_core::insertion::ArbitratedResource::Bank(
                binding.bank_of(seg).unwrap(),
            ))
            .unwrap()
            .id
        };
        let (a1, a2) = (arb_of(&plan, m1), arb_of(&plan, m2));
        let hold_both = |first, second, seg1, seg2| {
            Program::from_ops(vec![
                Op::ReqAssert { arbiter: first },
                if bounded {
                    Op::AwaitGrantFor {
                        arbiter: first,
                        cycles: 16,
                        dst: VarId::new(0),
                    }
                } else {
                    Op::AwaitGrant { arbiter: first }
                },
                Op::MemWrite {
                    segment: seg1,
                    addr: Expr::lit(0),
                    value: Expr::lit(1),
                },
                Op::ReqAssert { arbiter: second },
                if bounded {
                    Op::AwaitGrantFor {
                        arbiter: second,
                        cycles: 16,
                        dst: VarId::new(1),
                    }
                } else {
                    Op::AwaitGrant { arbiter: second }
                },
                Op::MemWrite {
                    segment: seg2,
                    addr: Expr::lit(0),
                    value: Expr::lit(1),
                },
                Op::ReqDeassert { arbiter: second },
                Op::ReqDeassert { arbiter: first },
            ])
        };
        plan.graph
            .task_mut(t1)
            .set_program(hold_both(a1, a2, m1, m2));
        plan.graph
            .task_mut(t2)
            .set_program(hold_both(a2, a1, m2, m1));
        (plan, binding, merges)
    }

    fn run(
        plan: &ArbitrationPlan,
        binding: &MemoryBinding,
        merges: &ChannelMergePlan,
    ) -> Vec<Diagnostic> {
        let guards = GuardMap::new(plan, binding, merges);
        let (_, edges) = check_starvation(plan, &guards, &AnalyzeConfig::default());
        check_deadlock(plan, &edges, &ConcurrencyRelation::compute(&plan.graph))
    }

    #[test]
    fn cross_order_acquisition_is_rca501() {
        let (plan, binding, merges) = cross_order_plan(false, false);
        let diags = run(&plan, &binding, &merges);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::DeadlockCycle)
            .expect("must report the circular wait");
        let w = d.witness.as_ref().expect("RCA501 carries a witness");
        assert_eq!(w.expect, "no_progress");
    }

    #[test]
    fn ordered_tasks_cannot_deadlock() {
        let (plan, binding, merges) = cross_order_plan(true, false);
        let diags = run(&plan, &binding, &merges);
        assert!(
            !diags.iter().any(|d| d.code == DiagCode::DeadlockCycle),
            "{diags:?}"
        );
    }

    #[test]
    fn bounded_waits_downgrade_to_livelock_risk() {
        let (plan, binding, merges) = cross_order_plan(false, true);
        let diags = run(&plan, &binding, &merges);
        assert!(
            !diags.iter().any(|d| d.code == DiagCode::DeadlockCycle),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == DiagCode::LivelockRisk));
    }

    #[test]
    fn single_ordered_acquisition_is_clean() {
        let (mut plan, binding, merges) = cross_order_plan(false, false);
        // Same order in both tasks: no cycle.
        let t2 = plan.graph.task_by_name("T2").unwrap().id();
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        let p1 = plan.graph.task(t1).program().clone();
        plan.graph.task_mut(t2).set_program(p1);
        let diags = run(&plan, &binding, &merges);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
