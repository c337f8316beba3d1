//! The end-to-end SPARCS-like flow (the paper's Fig. 9, software side).
//!
//! `run_flow` chains: temporal partitioning → per-stage subgraph
//! extraction → spatial partitioning → memory binding → channel merging →
//! arbiter insertion. Each stage comes back as a self-contained
//! [`StageResult`] whose transformed graph is directly simulatable with
//! `rcarb-sim`.

use crate::spatial::{self, SpatialError, SpatialPartition};
use crate::temporal::{self, TemporalConfig, TemporalError, TemporalPartition};
use rcarb_board::board::{Board, PeId};
use rcarb_core::channel::{plan_merges, ChannelMergePlan, ChannelPlanError};
use rcarb_core::insertion::{try_insert_arbiters, ArbitrationPlan, InsertionConfig};
use rcarb_core::memmap::{bind_segments, BindError, MemoryBinding};
use rcarb_taskgraph::builder::TaskGraphBuilder;
use rcarb_taskgraph::graph::TaskGraph;
use rcarb_taskgraph::id::{ChannelId, SegmentId, TaskId};
use rcarb_taskgraph::program::{Op, Program};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Temporal-partitioning knobs.
    pub temporal: TemporalConfig,
    /// Arbiter-insertion knobs.
    pub insertion: InsertionConfig,
    /// Optional segment-name → PE affinity, pinning segments to a PE's
    /// local banks consistently across stages (memory contents persist
    /// across reconfigurations on a real board, so cross-stage segments
    /// must land in the same bank every time).
    pub memory_affinity: BTreeMap<String, PeId>,
    /// Per-stage overrides of [`memory_affinity`](Self::memory_affinity),
    /// keyed `(stage index, segment name)`. Models host-mediated data
    /// movement between reconfigurations: a later stage may host a
    /// segment in a different bank after the host shuffles memory.
    pub stage_affinity: BTreeMap<(usize, String), PeId>,
}

impl FlowConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            temporal: TemporalConfig::new(),
            insertion: InsertionConfig::paper(),
            memory_affinity: BTreeMap::new(),
            stage_affinity: BTreeMap::new(),
        }
    }

    /// Pins a segment (by name) to a PE's local memory.
    pub fn with_affinity(mut self, segment: impl Into<String>, pe: PeId) -> Self {
        self.memory_affinity.insert(segment.into(), pe);
        self
    }

    /// Pins a segment to a PE's local memory for one stage only.
    pub fn with_stage_affinity(
        mut self,
        stage: usize,
        segment: impl Into<String>,
        pe: PeId,
    ) -> Self {
        self.stage_affinity.insert((stage, segment.into()), pe);
        self
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Everything produced for one temporal stage.
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Stage index in execution order.
    pub index: usize,
    /// The stage's tasks, as ids of the *original* graph.
    pub original_tasks: Vec<TaskId>,
    /// Original-to-subgraph task id map.
    pub task_map: BTreeMap<TaskId, TaskId>,
    /// Original-to-subgraph segment id map.
    pub segment_map: BTreeMap<SegmentId, SegmentId>,
    /// Original-to-subgraph channel id map.
    pub channel_map: BTreeMap<ChannelId, ChannelId>,
    /// Task placement (subgraph ids).
    pub spatial: SpatialPartition,
    /// Memory binding (subgraph segment ids).
    pub binding: MemoryBinding,
    /// Channel merges (subgraph channel ids).
    pub merges: ChannelMergePlan,
    /// The arbitration plan; `plan.graph` is the transformed subgraph.
    pub plan: ArbitrationPlan,
}

impl StageResult {
    /// Arbiter sizes inserted in this stage (the Fig. 11 summary).
    pub fn arbiter_sizes(&self) -> Vec<usize> {
        self.plan.arbiter_sizes()
    }

    /// The stage's interconnect report: per-PE wire totals in Fig. 11's
    /// `data+2` notation (data lines plus Request/Grant pairs).
    pub fn interconnect(&self, board: &Board) -> rcarb_core::interconnect::InterconnectReport {
        rcarb_core::interconnect::report(
            &self.plan.graph,
            board,
            &self.binding,
            &self.merges,
            &self.plan,
            &|t| self.spatial.pe_of(t),
        )
    }
}

/// The whole flow's output.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Stages in execution order.
    pub stages: Vec<StageResult>,
}

impl FlowResult {
    /// Number of temporal partitions.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Arbiter sizes per stage, e.g. `[[6, 2], [4], []]` for the paper's
    /// FFT.
    pub fn arbiter_sizes(&self) -> Vec<Vec<usize>> {
        self.stages.iter().map(|s| s.arbiter_sizes()).collect()
    }
}

/// A flow failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// Temporal partitioning failed.
    Temporal(TemporalError),
    /// Spatial partitioning failed.
    Spatial(SpatialError),
    /// Memory binding failed.
    Bind(BindError),
    /// Channel merging failed.
    Channel(ChannelPlanError),
    /// Arbiter insertion failed, e.g. a bank with more concurrent
    /// accessors than the synthesizer fits in one arbiter.
    Insertion(rcarb_core::Error),
    /// A channel connects tasks scheduled into different stages.
    ChannelSpansStages {
        /// The offending channel (original id).
        channel: ChannelId,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Temporal(e) => write!(f, "temporal partitioning: {e}"),
            FlowError::Spatial(e) => write!(f, "spatial partitioning: {e}"),
            FlowError::Bind(e) => write!(f, "memory binding: {e}"),
            FlowError::Channel(e) => write!(f, "channel merging: {e}"),
            FlowError::Insertion(e) => write!(f, "arbiter insertion: {e}"),
            FlowError::ChannelSpansStages { channel } => {
                write!(f, "channel {channel} spans temporal stages")
            }
        }
    }
}

impl Error for FlowError {}

impl From<TemporalError> for FlowError {
    fn from(e: TemporalError) -> Self {
        FlowError::Temporal(e)
    }
}

impl From<SpatialError> for FlowError {
    fn from(e: SpatialError) -> Self {
        FlowError::Spatial(e)
    }
}

impl From<BindError> for FlowError {
    fn from(e: BindError) -> Self {
        FlowError::Bind(e)
    }
}

impl From<ChannelPlanError> for FlowError {
    fn from(e: ChannelPlanError) -> Self {
        FlowError::Channel(e)
    }
}

impl From<rcarb_core::Error> for FlowError {
    fn from(e: rcarb_core::Error) -> Self {
        FlowError::Insertion(e)
    }
}

/// Runs the full flow.
///
/// # Errors
///
/// Returns the first [`FlowError`] encountered.
pub fn run_flow(
    graph: &TaskGraph,
    board: &Board,
    config: &FlowConfig,
) -> Result<FlowResult, FlowError> {
    let tp: TemporalPartition = temporal::partition(graph, board, config.temporal)?;
    let mut stages = Vec::new();
    for (index, stage_tasks) in tp.stages().iter().enumerate() {
        let extraction = extract_stage(graph, stage_tasks)?;
        let sub = &extraction.graph;
        let all_sub_tasks: Vec<TaskId> = (0..sub.tasks().len() as u32).map(TaskId::new).collect();
        let mut sp = spatial::partition(sub, board, &all_sub_tasks)?;
        // Memory affinity: explicit pin by name, else the PE hosting the
        // majority of the segment's accessors. Each program is walked
        // once for its segments; every accessor list is in task order.
        let mut accessors: Vec<Vec<TaskId>> = vec![Vec::new(); sub.segments().len()];
        for t in sub.tasks() {
            for s in t.program().segments_accessed() {
                accessors[s.index()].push(t.id());
            }
        }
        let affinity = &config.memory_affinity;
        let stage_affinity = &config.stage_affinity;
        let prefer = |sp: &SpatialPartition, s: SegmentId| -> Option<PeId> {
            let name = sub.segment(s).name();
            if let Some(&pe) = stage_affinity.get(&(index, name.to_owned())) {
                return Some(pe);
            }
            if let Some(&pe) = affinity.get(name) {
                return Some(pe);
            }
            let mut counts: BTreeMap<PeId, usize> = BTreeMap::new();
            for &t in &accessors[s.index()] {
                *counts.entry(sp.pe_of(t)).or_insert(0) += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(pe, c)| (c, std::cmp::Reverse(pe)))
                .map(|(pe, _)| pe)
        };
        // Bind, pull tasks toward their memory (the paper's placements
        // keep each task on the PE owning its private bank), then re-bind
        // against the improved placement.
        let binding = bind_segments(sub.segments(), board, &|s| prefer(&sp, s))?;
        spatial::refine_with_memory(sub, board, &binding, &mut sp, 8);
        let binding = bind_segments(sub.segments(), board, &|s| prefer(&sp, s))?;
        let merges = plan_merges(sub, board, &|t| sp.pe_of(t))?;
        let plan = try_insert_arbiters(sub, &binding, &merges, &config.insertion)?;
        stages.push(StageResult {
            index,
            original_tasks: stage_tasks.clone(),
            task_map: extraction.task_map,
            segment_map: extraction.segment_map,
            channel_map: extraction.channel_map,
            spatial: sp,
            binding,
            merges,
            plan,
        });
    }
    Ok(FlowResult { stages })
}

struct Extraction {
    graph: TaskGraph,
    task_map: BTreeMap<TaskId, TaskId>,
    segment_map: BTreeMap<SegmentId, SegmentId>,
    channel_map: BTreeMap<ChannelId, ChannelId>,
}

/// Extracts the stage subgraph with densely renumbered ids.
fn extract_stage(graph: &TaskGraph, tasks: &[TaskId]) -> Result<Extraction, FlowError> {
    let mut stage_tasks = tasks.to_vec();
    stage_tasks.sort();
    let in_stage = |t: TaskId| stage_tasks.binary_search(&t).is_ok();

    // Channels must stay inside one stage.
    for c in graph.channels() {
        let w = in_stage(c.writer());
        let r = in_stage(c.reader());
        if w != r {
            return Err(FlowError::ChannelSpansStages { channel: c.id() });
        }
    }

    // Collect segments in ascending original id.
    let mut segments: Vec<SegmentId> = Vec::new();
    for &t in &stage_tasks {
        segments.extend(graph.task(t).program().segments_accessed());
    }
    segments.sort();
    segments.dedup();

    let mut b = TaskGraphBuilder::new(format!("{}#stage", graph.name()));
    let mut segment_map = BTreeMap::new();
    for &s in &segments {
        let seg = graph.segment(s);
        let new = b.segment(seg.name(), seg.words(), seg.width_bits());
        segment_map.insert(s, new);
    }
    let mut task_map = BTreeMap::new();
    for &t in &stage_tasks {
        // Programs are installed after channels exist; placeholder first.
        let task = graph.task(t);
        let new = match task.area_hint_clbs() {
            Some(a) => b.task_with_area(task.name(), Program::empty(), a),
            None => b.task(task.name(), Program::empty()),
        };
        task_map.insert(t, new);
    }
    let mut channel_map = BTreeMap::new();
    for c in graph.channels() {
        if in_stage(c.writer()) {
            let new = b.channel(
                c.name(),
                c.width_bits(),
                task_map[&c.writer()],
                task_map[&c.reader()],
            );
            channel_map.insert(c.id(), new);
        }
    }
    for (from, to) in graph.control_deps() {
        if in_stage(*from) && in_stage(*to) {
            b.control_dep(task_map[from], task_map[to]);
        }
    }
    let mut sub = b
        .finish()
        .expect("stage subgraph of a valid graph is valid");
    for &t in &stage_tasks {
        let prog = remap_program(graph.task(t).program(), &segment_map, &channel_map);
        sub.task_mut(task_map[&t]).set_program(prog);
    }
    Ok(Extraction {
        graph: sub,
        task_map,
        segment_map,
        channel_map,
    })
}

fn remap_program(
    p: &Program,
    segmap: &BTreeMap<SegmentId, SegmentId>,
    chanmap: &BTreeMap<ChannelId, ChannelId>,
) -> Program {
    Program::from_ops(remap_ops(p.ops(), segmap, chanmap))
}

fn remap_ops(
    ops: &[Op],
    segmap: &BTreeMap<SegmentId, SegmentId>,
    chanmap: &BTreeMap<ChannelId, ChannelId>,
) -> Vec<Op> {
    ops.iter()
        .map(|op| match op {
            Op::MemRead { segment, addr, dst } => Op::MemRead {
                segment: segmap[segment],
                addr: addr.clone(),
                dst: *dst,
            },
            Op::MemWrite {
                segment,
                addr,
                value,
            } => Op::MemWrite {
                segment: segmap[segment],
                addr: addr.clone(),
                value: value.clone(),
            },
            Op::Send { channel, value } => Op::Send {
                channel: chanmap[channel],
                value: value.clone(),
            },
            Op::Recv { channel, dst } => Op::Recv {
                channel: chanmap[channel],
                dst: *dst,
            },
            Op::Repeat { times, body } => Op::Repeat {
                times: *times,
                body: remap_ops(body, segmap, chanmap),
            },
            Op::IfNonZero {
                cond,
                then_ops,
                else_ops,
            } => Op::IfNonZero {
                cond: cond.clone(),
                then_ops: remap_ops(then_ops, segmap, chanmap),
                else_ops: remap_ops(else_ops, segmap, chanmap),
            },
            other => other.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_board::presets;
    use rcarb_taskgraph::program::Expr;

    /// Two phases of two tasks each, all using one small shared memory
    /// space, with areas forcing two temporal stages.
    fn two_stage_design() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("two-stage");
        let m1 = b.segment("A", 64, 16);
        let m2 = b.segment("B", 64, 16);
        let mk = |seg| {
            Program::build(move |p| {
                p.repeat(4, |p| p.mem_write(seg, Expr::lit(0), Expr::lit(1)));
            })
        };
        let f0 = b.task_with_area("f0", mk(m1), 500);
        let f1 = b.task_with_area("f1", mk(m2), 400);
        let g0 = b.task_with_area("g0", mk(m1), 500);
        let g1 = b.task_with_area("g1", mk(m2), 400);
        for &f in &[f0, f1] {
            for &g in &[g0, g1] {
                b.control_dep(f, g);
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn flow_produces_simulatable_stages() {
        let graph = two_stage_design();
        let board = presets::wildforce();
        let result = run_flow(&graph, &board, &FlowConfig::paper()).unwrap();
        assert_eq!(result.num_stages(), 2);
        for stage in &result.stages {
            // Stage graphs are internally consistent and runnable.
            let mut sys = rcarb_sim::engine::SystemBuilder::from_plan(
                &stage.plan,
                &stage.binding,
                &stage.merges,
            )
            .try_build(&board)
            .unwrap();
            let report = sys.run(100_000);
            assert!(
                report.clean(),
                "stage {}: {:?}",
                stage.index,
                report.violations
            );
        }
    }

    #[test]
    fn stage_maps_round_trip() {
        let graph = two_stage_design();
        let board = presets::wildforce();
        let result = run_flow(&graph, &board, &FlowConfig::paper()).unwrap();
        for stage in &result.stages {
            for (&orig, &sub) in &stage.task_map {
                assert_eq!(
                    graph.task(orig).name(),
                    stage.plan.graph.task(sub).name(),
                    "task names must survive extraction"
                );
            }
            for (&orig, &sub) in &stage.segment_map {
                assert_eq!(
                    graph.segment(orig).name(),
                    stage.plan.graph.segment(sub).name()
                );
            }
        }
    }

    #[test]
    fn affinity_pins_segments_to_local_banks() {
        let graph = two_stage_design();
        let board = presets::wildforce();
        let pe3 = PeId::new(3);
        let config = FlowConfig::paper().with_affinity("A", pe3);
        let result = run_flow(&graph, &board, &config).unwrap();
        for stage in &result.stages {
            for seg in stage.plan.graph.segments() {
                if seg.name() == "A" {
                    let bank = stage.binding.bank_of(seg.id()).unwrap();
                    assert_eq!(board.bank(bank).local_pe(), Some(pe3));
                }
            }
        }
    }

    #[test]
    fn cross_stage_channel_is_rejected() {
        let mut b = TaskGraphBuilder::new("bad");
        let t0 = b.task_with_area("a", Program::empty(), 900);
        let t1 = b.task_with_area("b", Program::empty(), 900);
        b.control_dep(t0, t1);
        let c = b.channel("c", 8, t0, t1);
        // Programs never use the channel, but its endpoints are split by
        // the area budget (two stages needed).
        let graph = b.finish().unwrap();
        let board = presets::wildforce();
        let err = run_flow(&graph, &board, &FlowConfig::paper()).unwrap_err();
        assert_eq!(err, FlowError::ChannelSpansStages { channel: c });
    }

    /// `tasks` tasks, each making one write to one shared segment: one
    /// bank with `tasks` concurrent accessors.
    fn shared_segment_design(tasks: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new("shared");
        let m = b.segment("M", 64, 16);
        for i in 0..tasks {
            b.task(
                format!("T{i}"),
                Program::build(move |p| p.mem_write(m, Expr::lit(i as u64), Expr::lit(1))),
            );
        }
        b.finish().unwrap()
    }

    #[test]
    fn an_arbiter_too_wide_to_synthesize_is_a_flow_error() {
        for board in [presets::wildforce(), presets::quad_large()] {
            let err = run_flow(&shared_segment_design(22), &board, &FlowConfig::paper())
                .expect_err("22 accessors exceed the synthesizer");
            assert!(
                matches!(err, FlowError::Insertion(rcarb_core::Error::Request { .. })),
                "{}: {err}",
                board.name()
            );
            assert!(err.to_string().starts_with("arbiter insertion: "), "{err}");
            let planned = run_flow(&shared_segment_design(21), &board, &FlowConfig::paper())
                .expect("21 accessors fit");
            assert_eq!(planned.arbiter_sizes(), vec![vec![21]], "{}", board.name());
        }
    }
}
