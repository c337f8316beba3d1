//! Elision-soundness analysis (Sec. 5).
//!
//! Dropping an arbiter from a shared resource is sound only when every
//! pair of accessor tasks is ordered by a dependency path — ordered tasks
//! can never access concurrently, so the protocol is redundant. This
//! check re-derives the accessor sets of every shared bank and merged
//! channel and verifies:
//!
//! - resources with **no** arbiter have pairwise-ordered accessors
//!   (RCA201);
//! - tasks bypassing an existing arbiter are ordered against every other
//!   accessor (RCA202);
//! - tasks overlaid onto one arbiter port are pairwise ordered — they
//!   share a physical request line, so concurrent use is indistinguishable
//!   (RCA203).
//!
//! Accessor sets are taken from the CFG's *live* ops
//! ([`Cfg::live_ops`](rcarb_taskgraph::cfg::Cfg::live_ops)): an access
//! sitting in a statically dead branch (a literal-`0` condition or a
//! zero-trip loop) can never execute, so it neither makes an elision
//! unsound nor forces two tasks onto separate arbiter ports. Each
//! program's live ops are walked once; every "ordered?" question is
//! answered by the one [`ConcurrencyRelation`] the caller computed.

use crate::diag::{DiagCode, Diagnostic};
use rcarb_core::channel::ChannelMergePlan;
use rcarb_core::insertion::{ArbitratedResource, ArbitrationPlan};
use rcarb_core::memmap::MemoryBinding;
use rcarb_taskgraph::concurrency::ConcurrencyRelation;
use rcarb_taskgraph::graph::TaskGraph;
use rcarb_taskgraph::id::{ChannelId, SegmentId, TaskId};
use rcarb_taskgraph::program::Op;
use std::collections::BTreeSet;

/// Per-task access sets restricted to statically reachable code.
struct LiveAccess {
    segments: Vec<BTreeSet<SegmentId>>,
    sent_channels: Vec<BTreeSet<ChannelId>>,
}

impl LiveAccess {
    fn new(graph: &TaskGraph) -> Self {
        let mut segments = Vec::with_capacity(graph.tasks().len());
        let mut sent_channels = Vec::with_capacity(graph.tasks().len());
        for task in graph.tasks() {
            let mut segs = BTreeSet::new();
            let mut chans = BTreeSet::new();
            for op in task.program().cfg().live_ops() {
                match op {
                    Op::MemRead { segment, .. } | Op::MemWrite { segment, .. } => {
                        segs.insert(*segment);
                    }
                    Op::Send { channel, .. } => {
                        chans.insert(*channel);
                    }
                    _ => {}
                }
            }
            segments.push(segs);
            sent_channels.push(chans);
        }
        Self {
            segments,
            sent_channels,
        }
    }

    /// The tasks with a live access to any of `segments`, in id order.
    fn accessors_of(&self, segments: &[SegmentId]) -> Vec<TaskId> {
        (0..self.segments.len())
            .filter(|&t| segments.iter().any(|s| self.segments[t].contains(s)))
            .map(|t| TaskId::new(t as u32))
            .collect()
    }

    fn sends_on(&self, t: TaskId, c: ChannelId) -> bool {
        self.sent_channels
            .get(t.index())
            .is_some_and(|set| set.contains(&c))
    }
}

fn task_label(graph: &TaskGraph, t: TaskId) -> String {
    graph
        .tasks()
        .get(t.index())
        .map(|task| task.name().to_owned())
        .unwrap_or_else(|| t.to_string())
}

/// Every unordered pair among `tasks`, as `(a, b)` with `a < b`.
fn unordered_pairs(order: &ConcurrencyRelation, tasks: &[TaskId]) -> Vec<(TaskId, TaskId)> {
    let mut out = Vec::new();
    for (i, &a) in tasks.iter().enumerate() {
        for &b in &tasks[i + 1..] {
            if order.may_run_concurrently(a, b) {
                out.push((a, b));
            }
        }
    }
    out
}

/// Checks elision soundness over the whole plan. `order` is the
/// concurrency relation of `plan.graph`.
pub fn check_elision(
    plan: &ArbitrationPlan,
    binding: &MemoryBinding,
    merges: &ChannelMergePlan,
    order: &ConcurrencyRelation,
) -> Vec<Diagnostic> {
    let graph = &plan.graph;
    let live = LiveAccess::new(graph);
    let mut out = Vec::new();

    // Accessor sets per shared resource, with a display label. Only
    // live (CFG-reachable) accesses count — see the module doc.
    let mut resources: Vec<(ArbitratedResource, String, Vec<TaskId>)> = Vec::new();
    for bank in binding.used_banks() {
        let accessors = live.accessors_of(&binding.segments_in(bank));
        resources.push((
            ArbitratedResource::Bank(bank),
            format!("bank {bank}"),
            accessors,
        ));
    }
    for (mi, merge) in merges.merges().iter().enumerate() {
        if !merge.shared {
            continue;
        }
        let mut writers: Vec<TaskId> = merge
            .writers
            .iter()
            .copied()
            .filter(|&t| merge.logicals.iter().any(|&c| live.sends_on(t, c)))
            .collect();
        writers.sort();
        writers.dedup();
        resources.push((
            ArbitratedResource::MergedChannel(mi),
            format!("merged channel #{mi}"),
            writers,
        ));
    }

    for (resource, label, accessors) in resources {
        if accessors.len() < 2 {
            continue;
        }
        match plan.arbiter_for(resource) {
            None => {
                for (a, b) in unordered_pairs(order, &accessors) {
                    out.push(
                        Diagnostic::new(
                            DiagCode::UnsoundElision,
                            label.clone(),
                            format!(
                                "no arbiter guards this resource, but accessor tasks {} and {} \
                                 are unordered and may collide",
                                task_label(graph, a),
                                task_label(graph, b)
                            ),
                        )
                        .with_help(
                            "insert an arbiter, or add a dependency path ordering the two tasks \
                             (Sec. 5)",
                        ),
                    );
                }
            }
            Some(arb) => {
                // Bypassing tasks must be ordered against every accessor.
                // A bypass whose accesses are all statically dead is inert.
                for &bp in arb.bypass.iter().filter(|b| accessors.contains(b)) {
                    for &other in &accessors {
                        if other != bp && order.may_run_concurrently(bp, other) {
                            out.push(
                                Diagnostic::new(
                                    DiagCode::UnorderedBypass,
                                    format!("arbiter {} ({label})", arb.name()),
                                    format!(
                                        "task {} bypasses the protocol but is unordered \
                                         against accessor {}",
                                        task_label(graph, bp),
                                        task_label(graph, other)
                                    ),
                                )
                                .with_help("arbitrate the bypassing task as well"),
                            );
                        }
                    }
                }
                // Port overlays require temporal disjointness. Tasks with
                // no live access never raise their request line, so they
                // cannot collide on the shared one.
                for (p, port_tasks) in arb.ports.iter().enumerate() {
                    let live_port: Vec<TaskId> = port_tasks
                        .iter()
                        .copied()
                        .filter(|t| accessors.contains(t))
                        .collect();
                    for (a, b) in unordered_pairs(order, &live_port) {
                        out.push(
                            Diagnostic::new(
                                DiagCode::SharedPortUnordered,
                                format!("arbiter {} ({label}), port {p}", arb.name()),
                                format!(
                                    "tasks {} and {} share request line R{} but are unordered",
                                    task_label(graph, a),
                                    task_label(graph, b),
                                    p + 1
                                ),
                            )
                            .with_help(
                                "port overlay is only sound for temporally disjoint elision \
                                 groups; give each concurrent task its own port",
                            ),
                        );
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_board::presets;
    use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
    use rcarb_core::memmap::bind_segments;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::program::{Expr, Program};

    fn elide_check(plan: &ArbitrationPlan, binding: &MemoryBinding) -> Vec<Diagnostic> {
        let order = ConcurrencyRelation::compute(&plan.graph);
        check_elision(plan, binding, &ChannelMergePlan::default(), &order)
    }

    /// Two unordered tasks writing segments that share duo_small's bank.
    fn contended() -> (ArbitrationPlan, MemoryBinding) {
        let mut b = TaskGraphBuilder::new("contended");
        let m1 = b.segment("M1", 1024, 16);
        let m2 = b.segment("M2", 1024, 16);
        b.task(
            "T1",
            Program::build(|p| p.mem_write(m1, Expr::lit(0), Expr::lit(1))),
        );
        b.task(
            "T2",
            Program::build(|p| p.mem_write(m2, Expr::lit(0), Expr::lit(2))),
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
    fn arbitrated_contention_is_sound() {
        let (plan, binding) = contended();
        assert_eq!(plan.arbiter_sizes(), vec![2]);
        let diags = elide_check(&plan, &binding);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dropping_the_arbiter_is_rca201() {
        let (mut plan, binding) = contended();
        plan.arbiters.clear();
        let diags = elide_check(&plan, &binding);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::UnsoundElision);
        assert!(diags[0].message.contains("T1"));
        assert!(diags[0].message.contains("T2"));
    }

    #[test]
    fn ordered_accessors_may_elide() {
        // Same sharing, but T1 -> T2 ordered: elision is sound.
        let mut b = TaskGraphBuilder::new("ordered");
        let m1 = b.segment("M1", 1024, 16);
        let m2 = b.segment("M2", 1024, 16);
        let t1 = b.task(
            "T1",
            Program::build(|p| p.mem_write(m1, Expr::lit(0), Expr::lit(1))),
        );
        let t2 = b.task(
            "T2",
            Program::build(|p| p.mem_write(m2, Expr::lit(0), Expr::lit(2))),
        );
        b.control_dep(t1, t2);
        let graph = b.finish().unwrap();
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let plan = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper().with_elision(true),
        );
        assert!(plan.arbiters.is_empty(), "elision should fire");
        let diags = elide_check(&plan, &binding);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_path_accesses_do_not_make_elision_unsound() {
        // T2's only access to the shared bank sits under `if 0 { .. }`:
        // statically dead, so only T1 really touches the bank and the
        // missing arbiter is sound.
        let mut b = TaskGraphBuilder::new("dead-path");
        let m1 = b.segment("M1", 1024, 16);
        let m2 = b.segment("M2", 1024, 16);
        b.task(
            "T1",
            Program::build(|p| p.mem_write(m1, Expr::lit(0), Expr::lit(1))),
        );
        b.task(
            "T2",
            Program::build(|p| {
                p.if_else(
                    Expr::lit(0),
                    |t| t.mem_write(m2, Expr::lit(0), Expr::lit(2)),
                    |_| {},
                );
            }),
        );
        let graph = b.finish().unwrap();
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let mut plan = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper(),
        );
        // The (conservative) insertion pass still arbitrates; drop the
        // arbiter to model an elision decision made on live accesses.
        plan.arbiters.clear();
        let diags = elide_check(&plan, &binding);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unordered_bypass_is_rca202() {
        let (mut plan, binding) = contended();
        // Pretend T2 was (wrongly) allowed to bypass the arbiter.
        let t2 = plan.graph.task_by_name("T2").unwrap().id();
        let arb = &mut plan.arbiters[0];
        arb.ports.iter_mut().for_each(|p| p.retain(|&t| t != t2));
        arb.bypass.push(t2);
        let diags = elide_check(&plan, &binding);
        assert!(diags.iter().any(|d| d.code == DiagCode::UnorderedBypass));
    }

    #[test]
    fn concurrent_tasks_on_one_port_is_rca203() {
        let (mut plan, binding) = contended();
        // Squeeze both tasks onto port 0.
        let all: Vec<TaskId> = plan.arbiters[0].ports.iter().flatten().copied().collect();
        plan.arbiters[0].ports = vec![all, Vec::new()];
        let diags = elide_check(&plan, &binding);
        assert!(diags
            .iter()
            .any(|d| d.code == DiagCode::SharedPortUnordered));
    }
}
