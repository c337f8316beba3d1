//! Dependency-aware arbiter elision (Sec. 5).
//!
//! The paper observes that its FFT partition #0 received a 6-input arbiter
//! even though the two "g" tasks only start after the four "F" tasks have
//! terminated: ordered tasks can never conflict, so "instead of inserting
//! an arbiter between these tasks, it should only ensure that the shared
//! data, address, and select lines are appropriately set". This module
//! implements that detection: accessor tasks are partitioned into
//! contention groups (mutually-unordered sets); tasks in singleton groups
//! bypass the protocol entirely, and the arbiter is sized by the *largest*
//! group — temporally disjoint groups can reuse the same ports.

use rcarb_taskgraph::concurrency::ConcurrencyRelation;
use rcarb_taskgraph::id::TaskId;

/// The elision decision for one shared resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElisionPlan {
    /// Contention groups among the accessors (each group's members may run
    /// concurrently; members of different groups are pairwise ordered).
    pub groups: Vec<Vec<TaskId>>,
    /// Tasks that must speak the Request/Grant protocol.
    pub arbitrated: Vec<TaskId>,
    /// Tasks that may access directly, only driving default line values
    /// when idle (Fig. 4).
    pub bypass: Vec<TaskId>,
    /// Required arbiter size (0 means no arbiter at all).
    pub arbiter_inputs: usize,
}

impl ElisionPlan {
    /// True when no arbiter is required.
    pub fn elided(&self) -> bool {
        self.arbiter_inputs == 0
    }
}

/// Plans elision for one resource accessed by `accessors`.
///
/// With `order == None` the paper's baseline behaviour is reproduced:
/// every accessor is arbitrated and the arbiter takes one input per
/// accessor (this is what produced the over-wide 6-input arbiter of
/// Fig. 11). With `Some(order)`, the graph's concurrency relation, tasks
/// it orders drop out. The insertion pass computes that relation once
/// and passes it for every shared resource.
pub fn plan_elision(accessors: &[TaskId], order: Option<&ConcurrencyRelation>) -> ElisionPlan {
    let mut sorted = accessors.to_vec();
    sorted.sort();
    sorted.dedup();
    if sorted.len() < 2 {
        return ElisionPlan {
            groups: sorted.iter().map(|&t| vec![t]).collect(),
            arbitrated: Vec::new(),
            bypass: sorted,
            arbiter_inputs: 0,
        };
    }
    let Some(order) = order else {
        return ElisionPlan {
            groups: vec![sorted.clone()],
            arbiter_inputs: sorted.len(),
            arbitrated: sorted,
            bypass: Vec::new(),
        };
    };
    let groups = order.contention_groups(&sorted);
    let mut arbitrated = Vec::new();
    let mut bypass = Vec::new();
    let mut largest = 0usize;
    for g in &groups {
        if g.len() > 1 {
            arbitrated.extend(g.iter().copied());
            largest = largest.max(g.len());
        } else {
            bypass.push(g[0]);
        }
    }
    arbitrated.sort();
    bypass.sort();
    ElisionPlan {
        groups,
        arbitrated,
        bypass,
        arbiter_inputs: largest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::graph::TaskGraph;
    use rcarb_taskgraph::program::Program;

    /// The FFT TP#0 shape: F1..F4 concurrent, then g1r,g2r concurrent,
    /// with every g depending on every F.
    fn fft_tp0() -> (TaskGraph, Vec<TaskId>) {
        let mut b = TaskGraphBuilder::new("tp0");
        let fs: Vec<TaskId> = (1..=4)
            .map(|i| b.task(format!("F{i}"), Program::empty()))
            .collect();
        let gs: Vec<TaskId> = ["g1r", "g2r"]
            .iter()
            .map(|n| b.task(*n, Program::empty()))
            .collect();
        for &f in &fs {
            for &g in &gs {
                b.control_dep(f, g);
            }
        }
        let all = fs.iter().chain(gs.iter()).copied().collect();
        (b.finish().unwrap(), all)
    }

    #[test]
    fn disabled_elision_reproduces_the_papers_arb6() {
        let (_, accessors) = fft_tp0();
        let plan = plan_elision(&accessors, None);
        assert_eq!(plan.arbiter_inputs, 6);
        assert_eq!(plan.arbitrated.len(), 6);
        assert!(plan.bypass.is_empty());
    }

    #[test]
    fn enabled_elision_shrinks_to_the_f_group() {
        let (g, accessors) = fft_tp0();
        let plan = plan_elision(&accessors, Some(&ConcurrencyRelation::compute(&g)));
        // Two groups: {F1..F4} and {g1r, g2r}; the arbiter is sized by the
        // larger and shared across both (they never overlap in time).
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(plan.arbiter_inputs, 4);
        assert_eq!(plan.arbitrated.len(), 6); // both groups still arbitrate
        assert!(plan.bypass.is_empty());
    }

    #[test]
    fn fully_ordered_accessors_elide_entirely() {
        let mut b = TaskGraphBuilder::new("chain");
        let t0 = b.task("a", Program::empty());
        let t1 = b.task("b", Program::empty());
        let t2 = b.task("c", Program::empty());
        b.control_dep(t0, t1);
        b.control_dep(t1, t2);
        let g = b.finish().unwrap();
        let plan = plan_elision(&[t0, t1, t2], Some(&ConcurrencyRelation::compute(&g)));
        assert!(plan.elided());
        assert_eq!(plan.bypass, vec![t0, t1, t2]);
        assert!(plan.arbitrated.is_empty());
    }

    #[test]
    fn single_accessor_never_needs_arbitration() {
        let mut b = TaskGraphBuilder::new("solo");
        let t0 = b.task("a", Program::empty());
        let g = b.finish().unwrap();
        let rel = ConcurrencyRelation::compute(&g);
        for order in [None, Some(&rel)] {
            let plan = plan_elision(&[t0], order);
            assert!(plan.elided());
            assert_eq!(plan.bypass, vec![t0]);
        }
    }

    #[test]
    fn duplicate_accessors_are_deduped() {
        let mut b = TaskGraphBuilder::new("dup");
        let t0 = b.task("a", Program::empty());
        let t1 = b.task("b", Program::empty());
        b.finish().unwrap();
        let plan = plan_elision(&[t0, t1, t0], None);
        assert_eq!(plan.arbiter_inputs, 2);
    }
}
