//! The taskgraph container and its graph algorithms.

use crate::channel::Channel;
use crate::id::{ChannelId, SegmentId, TaskId};
use crate::segment::MemorySegment;
use crate::task::Task;
use std::collections::BTreeSet;

/// A complete taskgraph: tasks, memory segments, channels and control
/// dependencies.
///
/// Construct one with [`crate::builder::TaskGraphBuilder`], which validates
/// the graph on `finish()`. The accessors here are what the partitioning and
/// arbitration passes consume.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    segments: Vec<MemorySegment>,
    channels: Vec<Channel>,
    /// Control-dependency arcs `(before, after)`: `after` starts only once
    /// `before` has terminated (the dashed arrows of the paper's Fig. 10).
    control_deps: Vec<(TaskId, TaskId)>,
}

impl TaskGraph {
    pub(crate) fn from_parts(
        name: String,
        tasks: Vec<Task>,
        segments: Vec<MemorySegment>,
        channels: Vec<Channel>,
        control_deps: Vec<(TaskId, TaskId)>,
    ) -> Self {
        Self {
            name,
            tasks,
            segments,
            channels,
            control_deps,
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All tasks, indexed by [`TaskId::index`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All logical memory segments, indexed by [`SegmentId::index`].
    pub fn segments(&self) -> &[MemorySegment] {
        &self.segments
    }

    /// All logical channels, indexed by [`ChannelId::index`].
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The control-dependency arcs.
    pub fn control_deps(&self) -> &[(TaskId, TaskId)] {
        &self.control_deps
    }

    /// Looks up a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Mutable task lookup (used by the arbitration-insertion pass).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.index()]
    }

    /// Looks up a segment.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn segment(&self, id: SegmentId) -> &MemorySegment {
        &self.segments[id.index()]
    }

    /// Looks up a channel.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Finds a task by name.
    pub fn task_by_name(&self, name: &str) -> Option<&Task> {
        self.tasks.iter().find(|t| t.name() == name)
    }

    /// Finds a segment by name.
    pub fn segment_by_name(&self, name: &str) -> Option<&MemorySegment> {
        self.segments.iter().find(|s| s.name() == name)
    }

    /// Finds a channel by name.
    pub fn channel_by_name(&self, name: &str) -> Option<&Channel> {
        self.channels.iter().find(|c| c.name() == name)
    }

    /// Direct control-dependency successors of `task`.
    pub fn successors(&self, task: TaskId) -> Vec<TaskId> {
        self.control_deps
            .iter()
            .filter(|(from, _)| *from == task)
            .map(|(_, to)| *to)
            .collect()
    }

    /// Direct control-dependency predecessors of `task`.
    pub fn predecessors(&self, task: TaskId) -> Vec<TaskId> {
        self.control_deps
            .iter()
            .filter(|(_, to)| *to == task)
            .map(|(from, _)| *from)
            .collect()
    }

    /// A topological ordering of the tasks under control dependencies.
    ///
    /// Returns `None` if the dependencies contain a cycle (the validator
    /// rejects cyclic graphs, so graphs built through the builder always
    /// yield `Some`).
    pub fn topological_order(&self) -> Option<Vec<TaskId>> {
        let n = self.tasks.len();
        let mut indegree = vec![0usize; n];
        for (_, to) in &self.control_deps {
            indegree[to.index()] += 1;
        }
        let mut ready: Vec<TaskId> = (0..n as u32)
            .map(TaskId::new)
            .filter(|t| indegree[t.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = ready.pop() {
            order.push(t);
            for s in self.successors(t) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// All tasks reachable from `task` through control dependencies
    /// (excluding `task` itself).
    pub fn reachable_from(&self, task: TaskId) -> BTreeSet<TaskId> {
        let mut seen = BTreeSet::new();
        let mut stack = self.successors(task);
        while let Some(t) = stack.pop() {
            if seen.insert(t) {
                stack.extend(self.successors(t));
            }
        }
        seen
    }

    /// Returns true if control dependencies order `a` and `b` (either way).
    ///
    /// Ordered tasks can never access a shared resource simultaneously, so
    /// the arbitration pass may skip the arbiter between them (the paper's
    /// Sec. 5 "F"/"g" observation).
    pub fn are_ordered(&self, a: TaskId, b: TaskId) -> bool {
        a == b || self.reachable_from(a).contains(&b) || self.reachable_from(b).contains(&a)
    }

    /// Renders the graph in GraphViz DOT: box nodes for tasks, cylinder
    /// nodes for memory segments, solid edges for data transfers
    /// (task-to-memory accesses and channels) and dashed edges for control
    /// dependencies — the visual conventions of the paper's Fig. 10.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name);
        let _ = writeln!(s, "  rankdir=TB;");
        for t in &self.tasks {
            let _ = writeln!(
                s,
                "  t{} [label=\"{}\", shape=box];",
                t.id().index(),
                t.name()
            );
        }
        for m in &self.segments {
            let _ = writeln!(
                s,
                "  m{} [label=\"{}\", shape=cylinder];",
                m.id().index(),
                m.name()
            );
        }
        for t in &self.tasks {
            let reads_writes = t.program().segments_accessed();
            for seg in reads_writes {
                let _ = writeln!(s, "  t{} -> m{};", t.id().index(), seg.index());
            }
        }
        for c in &self.channels {
            let _ = writeln!(
                s,
                "  t{} -> t{} [label=\"{}\"];",
                c.writer().index(),
                c.reader().index(),
                c.name()
            );
        }
        for (from, to) in &self.control_deps {
            let _ = writeln!(s, "  t{} -> t{} [style=dashed];", from.index(), to.index());
        }
        let _ = writeln!(s, "}}");
        s
    }
}

rcarb_json::impl_json_struct!(TaskGraph {
    name,
    tasks,
    segments,
    channels,
    control_deps,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskGraphBuilder;
    use crate::program::{Expr, Program};

    fn diamond() -> TaskGraph {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = TaskGraphBuilder::new("diamond");
        let seg = b.segment("M", 16, 8);
        let mk = |seg| {
            Program::build(move |p| {
                p.mem_write(seg, Expr::lit(0), Expr::lit(1));
            })
        };
        let a = b.task("a", mk(seg));
        let t_b = b.task("b", mk(seg));
        let c = b.task("c", mk(seg));
        let d = b.task("d", mk(seg));
        b.control_dep(a, t_b);
        b.control_dep(a, c);
        b.control_dep(t_b, d);
        b.control_dep(c, d);
        b.finish().expect("valid graph")
    }

    #[test]
    fn topological_order_respects_deps() {
        let g = diamond();
        let order = g.topological_order().expect("acyclic");
        let pos = |name: &str| {
            let id = g.task_by_name(name).unwrap().id();
            order.iter().position(|t| *t == id).unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("a") < pos("c"));
        assert!(pos("b") < pos("d"));
        assert!(pos("c") < pos("d"));
    }

    #[test]
    fn reachability_and_ordering() {
        let g = diamond();
        let a = g.task_by_name("a").unwrap().id();
        let b = g.task_by_name("b").unwrap().id();
        let c = g.task_by_name("c").unwrap().id();
        let d = g.task_by_name("d").unwrap().id();
        assert!(g.reachable_from(a).contains(&d));
        assert!(g.are_ordered(a, d));
        assert!(g.are_ordered(d, a));
        assert!(!g.are_ordered(b, c)); // siblings run concurrently
        assert!(g.are_ordered(b, b));
    }

    #[test]
    fn lookup_by_name() {
        let g = diamond();
        assert!(g.task_by_name("a").is_some());
        assert!(g.task_by_name("zzz").is_none());
        assert!(g.segment_by_name("M").is_some());
        assert!(g.channel_by_name("nope").is_none());
    }
}
