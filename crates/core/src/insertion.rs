//! The arbiter-insertion pass (Sec. 4.3 / Sec. 5).
//!
//! Runs after spatial partitioning, when logical segments have been bound
//! to banks and logical channels merged onto physical routes. For every
//! physical resource with multiple concurrent accessor tasks it sizes a
//! round-robin arbiter, pre-characterizes it (area, clock), rewrites the
//! affected task programs with the Fig. 8 protocol and reports the
//! resulting interconnect — the information Fig. 11 visualizes for the
//! FFT's temporal partition #0.

use crate::channel::ChannelMergePlan;
use crate::characterize;
use crate::elision;
use crate::error::Error;
use crate::memmap::MemoryBinding;
use crate::transform::{self, ResourceMap, RetryPolicy, TransformConfig, TransformStats};
use rcarb_board::device::SpeedGrade;
use rcarb_board::memory::BankId;
use rcarb_taskgraph::concurrency::ConcurrencyRelation;
use rcarb_taskgraph::graph::TaskGraph;
use rcarb_taskgraph::id::{ArbiterId, SegmentId, TaskId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What a generated arbiter guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbitratedResource {
    /// A physical memory bank.
    Bank(BankId),
    /// A merged physical channel (index into the merge plan).
    MergedChannel(usize),
}

impl fmt::Display for ArbitratedResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArbitratedResource::Bank(b) => write!(f, "bank {b}"),
            ArbitratedResource::MergedChannel(i) => write!(f, "merged channel #{i}"),
        }
    }
}

/// One inserted arbiter.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterInstance {
    /// The arbiter's identifier (referenced by protocol ops in programs).
    pub id: ArbiterId,
    /// The guarded resource.
    pub resource: ArbitratedResource,
    /// Arbiter size N (request/grant pairs).
    pub inputs: usize,
    /// Port assignment: `ports[p]` lists the tasks wired to port `p`
    /// (more than one only when temporally disjoint elision groups share
    /// ports).
    pub ports: Vec<Vec<TaskId>>,
    /// Tasks accessing the resource without the protocol (ordered against
    /// everything else; they only keep default line values when idle).
    pub bypass: Vec<TaskId>,
    /// Pre-characterized area (CLBs, Synplify model).
    pub clbs: u32,
    /// Pre-characterized maximum clock (MHz).
    pub fmax_mhz: f64,
}

impl ArbiterInstance {
    /// The paper's naming convention: `Arb<N>`.
    pub fn name(&self) -> String {
        format!("Arb{}", self.inputs)
    }

    /// The port a task drives, if it is arbitrated here.
    pub fn port_of(&self, task: TaskId) -> Option<usize> {
        self.ports.iter().position(|g| g.contains(&task))
    }

    /// All arbitrated tasks, in id order.
    pub fn arbitrated_tasks(&self) -> Vec<TaskId> {
        let mut v: Vec<TaskId> = self.ports.iter().flatten().copied().collect();
        v.sort();
        v
    }
}

/// Configuration of the insertion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertionConfig {
    /// The Fig. 8 burst bound `M`.
    pub max_burst: u32,
    /// Enable the Sec. 5 dependency-aware elision improvement.
    pub elide_by_dependency: bool,
    /// Emit the preemption-safe protocol (grant re-checked before every
    /// access); required when simulating with a preemptive arbiter.
    pub await_each_access: bool,
    /// Target speed grade for pre-characterization.
    pub grade: SpeedGrade,
    /// Bounded-wait retry protocol (see
    /// [`crate::transform::RetryPolicy`]); `None` emits the paper's
    /// blocking protocol.
    pub retry: Option<RetryPolicy>,
}

impl InsertionConfig {
    /// The paper's configuration: `M = 2`, no elision (Sec. 5 reports the
    /// 6-input arbiter that elision would have shrunk), `-3` speed grade.
    /// Arbiters are pre-characterized with the Synplify model, which
    /// synthesizes one-hot whatever encoding is requested.
    pub fn paper() -> Self {
        Self {
            max_burst: 2,
            elide_by_dependency: false,
            await_each_access: false,
            grade: SpeedGrade::Minus3,
            retry: None,
        }
    }

    /// Enables dependency-aware elision.
    pub fn with_elision(mut self, enabled: bool) -> Self {
        self.elide_by_dependency = enabled;
        self
    }

    /// Enables the preemption-safe protocol (see
    /// [`crate::transform::TransformConfig::await_each_access`]).
    pub fn with_await_each_access(mut self, enabled: bool) -> Self {
        self.await_each_access = enabled;
        self
    }

    /// Sets the burst bound `M`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn with_max_burst(mut self, m: u32) -> Self {
        assert!(m > 0, "burst length must be at least one access");
        self.max_burst = m;
        self
    }

    /// Emits the bounded-wait retry protocol instead of the blocking
    /// `AwaitGrant` (see [`crate::transform::RetryPolicy`]).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }
}

impl Default for InsertionConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The pass output: a transformed graph plus the arbiter inventory.
#[derive(Debug, Clone)]
pub struct ArbitrationPlan {
    /// The taskgraph with protocol ops inserted.
    pub graph: TaskGraph,
    /// Every inserted arbiter.
    pub arbiters: Vec<ArbiterInstance>,
    /// Aggregated rewrite statistics.
    pub stats: TransformStats,
}

impl ArbitrationPlan {
    /// The arbiter guarding `resource`, if one was inserted.
    pub fn arbiter_for(&self, resource: ArbitratedResource) -> Option<&ArbiterInstance> {
        self.arbiters.iter().find(|a| a.resource == resource)
    }

    /// Total pre-characterized arbiter area in CLBs.
    pub fn total_arbiter_clbs(&self) -> u32 {
        self.arbiters.iter().map(|a| a.clbs).sum()
    }

    /// Arbiter sizes in insertion order (e.g. `[6, 2]` for the paper's
    /// temporal partition #0).
    pub fn arbiter_sizes(&self) -> Vec<usize> {
        self.arbiters.iter().map(|a| a.inputs).collect()
    }
}

/// Runs the insertion pass.
///
/// `binding` decides which banks are contended; `merges` decides which
/// physical channels are shared by multiple writer tasks. The returned
/// plan owns a transformed copy of `graph`.
///
/// # Panics
///
/// Panics if a contended resource needs an arbiter wider than the
/// synthesizer fits; [`try_insert_arbiters`] returns that as an error.
pub fn insert_arbiters(
    graph: &TaskGraph,
    binding: &MemoryBinding,
    merges: &ChannelMergePlan,
    config: &InsertionConfig,
) -> ArbitrationPlan {
    try_insert_arbiters(graph, binding, merges, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Pre-characterizes the round-robin arbiter guarding `resource`, after
/// checking that its Synplify synthesis fits.
fn estimate(
    resource: ArbitratedResource,
    inputs: usize,
    grade: SpeedGrade,
) -> Result<(u32, f64), Error> {
    if !characterize::synplify_fits(inputs) {
        return Err(Error::Request {
            detail: format!(
                "{resource} needs a {inputs}-input round-robin arbiter, wider than the \
                 synthesizer fits (state bits plus inputs exceed 64 variables)"
            ),
        });
    }
    Ok(characterize::estimate_round_robin(inputs, grade))
}

/// [`insert_arbiters`], returning an error instead of panicking when an
/// arbiter does not fit the synthesizer.
///
/// # Errors
///
/// Returns [`Error::Request`] naming the first resource whose arbiter
/// is too wide, e.g. a bank with 22 or more concurrent accessors.
pub fn try_insert_arbiters(
    graph: &TaskGraph,
    binding: &MemoryBinding,
    merges: &ChannelMergePlan,
    config: &InsertionConfig,
) -> Result<ArbitrationPlan, Error> {
    let mut out_graph = graph.clone();
    let mut arbiters: Vec<ArbiterInstance> = Vec::new();
    let mut per_task: BTreeMap<TaskId, ResourceMap> = BTreeMap::new();
    // Each program is walked once, for the segments it reads or writes;
    // `accessed[t]` answers both "who accesses this bank" and "which of
    // its segments does this task guard".
    let accessed: Vec<BTreeSet<SegmentId>> = graph
        .tasks()
        .iter()
        .map(|t| t.program().segments_accessed())
        .collect();
    // Elision consults one concurrency relation for every resource.
    let order = config
        .elide_by_dependency
        .then(|| ConcurrencyRelation::compute(graph));

    // Memory banks hosting segments with concurrent accessors.
    for bank in binding.used_banks() {
        let segments = binding.segments_in(bank);
        let accessors: Vec<TaskId> = graph
            .tasks()
            .iter()
            .map(|t| t.id())
            .filter(|t| segments.iter().any(|s| accessed[t.index()].contains(s)))
            .collect();
        let plan = elision::plan_elision(&accessors, order.as_ref());
        if plan.elided() {
            continue;
        }
        let id = ArbiterId::new(arbiters.len() as u32);
        let ports = build_ports(&plan);
        for &task in &plan.arbitrated {
            let map = per_task.entry(task).or_default();
            for &s in &segments {
                if accessed[task.index()].contains(&s) {
                    map.guard_segment(s, id);
                }
            }
        }
        let resource = ArbitratedResource::Bank(bank);
        let (clbs, fmax_mhz) = estimate(resource, plan.arbiter_inputs, config.grade)?;
        arbiters.push(ArbiterInstance {
            id,
            resource,
            inputs: plan.arbiter_inputs,
            ports,
            bypass: plan.bypass,
            clbs,
            fmax_mhz,
        });
    }

    // Shared channels with multiple writer tasks.
    for (mi, merge) in merges.merges().iter().enumerate() {
        if !merge.needs_arbiter() {
            continue;
        }
        let plan = elision::plan_elision(&merge.writers, order.as_ref());
        if plan.elided() {
            continue;
        }
        let id = ArbiterId::new(arbiters.len() as u32);
        let ports = build_ports(&plan);
        for &task in &plan.arbitrated {
            let map = per_task.entry(task).or_default();
            for &ch in &merge.logicals {
                if graph.channel(ch).writer() == task {
                    map.guard_channel(ch, id);
                }
            }
        }
        let resource = ArbitratedResource::MergedChannel(mi);
        let (clbs, fmax_mhz) = estimate(resource, plan.arbiter_inputs, config.grade)?;
        arbiters.push(ArbiterInstance {
            id,
            resource,
            inputs: plan.arbiter_inputs,
            ports,
            bypass: plan.bypass,
            clbs,
            fmax_mhz,
        });
    }

    // Rewrite every affected task once, with its combined resource map.
    let mut stats = TransformStats::default();
    let mut tcfg = TransformConfig::new()
        .with_max_burst(config.max_burst)
        .with_await_each_access(config.await_each_access);
    if let Some(policy) = config.retry {
        tcfg = tcfg.with_retry(policy);
    }
    for (task, map) in &per_task {
        let (prog, s) = transform::transform_program(graph.task(*task).program(), map, tcfg);
        out_graph.task_mut(*task).set_program(prog);
        stats.batches += s.batches;
        stats.guarded_accesses += s.guarded_accesses;
        stats.retry_guard_evals += s.retry_guard_evals;
    }

    Ok(ArbitrationPlan {
        graph: out_graph,
        arbiters,
        stats,
    })
}

/// Assigns ports: group members take ports `0..len`; temporally disjoint
/// groups overlay onto the same port range.
fn build_ports(plan: &elision::ElisionPlan) -> Vec<Vec<TaskId>> {
    let mut ports: Vec<Vec<TaskId>> = vec![Vec::new(); plan.arbiter_inputs];
    for group in &plan.groups {
        if group.len() < 2 {
            continue;
        }
        for (i, &t) in group.iter().enumerate() {
            ports[i].push(t);
        }
    }
    ports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::plan_merges;
    use crate::memmap::bind_segments;
    use rcarb_board::board::PeId;
    use rcarb_board::presets;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::program::{Expr, Op, Program};

    /// Fig. 2: T1 uses M1, T2 uses M2; M1 and M2 land in the same bank.
    fn fig2_design() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("fig2");
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
        b.finish().unwrap()
    }

    #[test]
    fn fig2_produces_one_two_input_arbiter() {
        let graph = fig2_design();
        let board = presets::duo_small(); // one shared bank: M1 and M2 collide
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let merges = ChannelMergePlan::default();
        let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
        assert_eq!(plan.arbiter_sizes(), vec![2]);
        let arb = &plan.arbiters[0];
        assert_eq!(arb.name(), "Arb2");
        assert!(matches!(arb.resource, ArbitratedResource::Bank(_)));
        assert!(arb.clbs > 0);
        assert!(arb.fmax_mhz > 0.0);
        // Both tasks got the protocol.
        for name in ["T1", "T2"] {
            let t = plan.graph.task_by_name(name).unwrap();
            assert!(
                !t.program().arbiters_referenced().is_empty(),
                "{name} was not rewritten"
            );
        }
        // T1's two writes share one hold (M = 2).
        let t1 = plan.graph.task_by_name("T1").unwrap();
        let mut reqs = 0;
        t1.program().visit(&mut |op| {
            if matches!(op, Op::ReqAssert { .. }) {
                reqs += 1;
            }
        });
        assert_eq!(reqs, 1);
    }

    #[test]
    fn separate_banks_need_no_arbiter() {
        let graph = fig2_design();
        let board = presets::wildforce(); // four banks: segments spread out
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let plan = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper(),
        );
        assert!(plan.arbiters.is_empty());
        assert_eq!(plan.stats.batches, 0);
        // Programs untouched.
        assert_eq!(
            plan.graph.task_by_name("T1").unwrap().program(),
            graph.task_by_name("T1").unwrap().program()
        );
    }

    #[test]
    fn shared_channel_writers_get_arbitrated() {
        let mut b = TaskGraphBuilder::new("chan");
        let t0 = b.task("W0", Program::empty());
        let t1 = b.task("W1", Program::empty());
        let t2 = b.task("R0", Program::empty());
        let t3 = b.task("R1", Program::empty());
        let c0 = b.channel("c0", 8, t0, t2);
        let c1 = b.channel("c1", 8, t1, t3);
        let mut graph = b.finish().unwrap();
        graph
            .task_mut(t0)
            .set_program(Program::from_ops(vec![Op::Send {
                channel: c0,
                value: Expr::lit(1),
            }]));
        graph
            .task_mut(t1)
            .set_program(Program::from_ops(vec![Op::Send {
                channel: c1,
                value: Expr::lit(2),
            }]));
        let board = presets::duo_small();
        let place = |t: TaskId| PeId::new(u32::from(t.index() >= 2));
        let merges = plan_merges(&graph, &board, &place).unwrap();
        let binding = MemoryBinding::default();
        let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
        assert_eq!(plan.arbiter_sizes(), vec![2]);
        assert!(matches!(
            plan.arbiters[0].resource,
            ArbitratedResource::MergedChannel(0)
        ));
        // Only writers were rewritten.
        assert!(!plan
            .graph
            .task(t0)
            .program()
            .arbiters_referenced()
            .is_empty());
        assert!(plan
            .graph
            .task(t2)
            .program()
            .arbiters_referenced()
            .is_empty());
    }

    #[test]
    fn elision_shrinks_phase_ordered_contention() {
        // Two phases of two tasks each, all hitting one bank.
        let mut b = TaskGraphBuilder::new("phased");
        let m = b.segment("M", 512, 16);
        let mk = |seg| {
            Program::build(move |p| {
                p.mem_write(seg, Expr::lit(0), Expr::lit(1));
            })
        };
        let a0 = b.task("a0", mk(m));
        let a1 = b.task("a1", mk(m));
        let b0 = b.task("b0", mk(m));
        let b1 = b.task("b1", mk(m));
        for &f in &[a0, a1] {
            for &g in &[b0, b1] {
                b.control_dep(f, g);
            }
        }
        let graph = b.finish().unwrap();
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let baseline = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper(),
        );
        let elided = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper().with_elision(true),
        );
        assert_eq!(baseline.arbiter_sizes(), vec![4]);
        assert_eq!(elided.arbiter_sizes(), vec![2]);
        assert!(elided.total_arbiter_clbs() < baseline.total_arbiter_clbs());
        // Port overlay: each port carries one task from each phase.
        let arb = &elided.arbiters[0];
        assert_eq!(arb.ports.len(), 2);
        assert!(arb.ports.iter().all(|p| p.len() == 2));
        assert_eq!(arb.port_of(a0), arb.port_of(b0));
    }

    #[test]
    fn port_lookup_and_task_listing() {
        let graph = fig2_design();
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let plan = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper(),
        );
        let arb = &plan.arbiters[0];
        let tasks = arb.arbitrated_tasks();
        assert_eq!(tasks.len(), 2);
        assert_eq!(arb.port_of(tasks[0]), Some(0));
        assert_eq!(arb.port_of(tasks[1]), Some(1));
        assert_eq!(arb.port_of(TaskId::new(99)), None);
    }
}
