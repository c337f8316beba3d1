//! The SPARCS flow applied to the FFT, and block-accurate simulation.
//!
//! Reproduces the paper's Sec. 5 result: the 4x4 2-D FFT partitioned for
//! the Wildforce board into **three temporal partitions**, the first
//! containing a 6-input and a 2-input arbiter, the second a 4-input
//! arbiter, the third none (Fig. 11). Memory affinities mirror the
//! figure: all plane segments (`ML*`/`MLI*`/`MO*`/`MOI*`) live in PE1's
//! bank, `MI1`/`MI3` share PE2's bank (the source of the 2-input
//! arbiter), `MI2` and `MI4` sit alone; between partitions #1 and #2 the
//! host moves the remaining imaginary-plane data to PE2's bank, which is
//! why the last partition needs no arbitration.

use crate::reference::Complex;
use crate::taskgraph::{build_fft_taskgraph, FftNames};
use rcarb_analyze::{analyze_plan, AnalysisReport, AnalyzeConfig};
use rcarb_board::board::{Board, PeId};
use rcarb_board::presets;
use rcarb_core::Error;
use rcarb_obs::Obs;
use rcarb_partition::flow::{run_flow, FlowConfig, FlowError, FlowResult};
use rcarb_sim::config::SimConfig;
use rcarb_sim::engine::SystemBuilder;
use rcarb_sim::monitor::Violation;
use rcarb_sim::scheduler::KernelStats;
use rcarb_sim::{FaultPlan, FaultReport};
use rcarb_taskgraph::graph::TaskGraph;
use std::collections::BTreeMap;

/// The utilization knob that reproduces the paper's three-stage split
/// with the declared task area hints.
pub const FFT_UTILIZATION: f64 = 0.46;

/// The flow output bundle.
#[derive(Debug, Clone)]
pub struct FftFlow {
    /// The Fig. 10 graph.
    pub graph: TaskGraph,
    /// Name lookups.
    pub names: FftNames,
    /// The target board.
    pub board: Board,
    /// The partitioned, arbitrated result.
    pub result: FlowResult,
}

/// Runs the paper's FFT flow on the Wildforce board.
///
/// # Errors
///
/// Returns the underlying [`FlowError`] if partitioning fails (it does
/// not, for the shipped configuration; the error path exists for callers
/// who retarget the flow).
pub fn run_fft_flow() -> Result<FftFlow, FlowError> {
    run_fft_flow_with(false)
}

/// [`run_fft_flow`] with the Sec. 5 dependency-aware elision toggled —
/// the A2 ablation. The paper ran without elision (and reports the
/// resulting over-wide 6-input arbiter); enabling it shrinks that arbiter
/// to the concurrent F group's width.
///
/// # Errors
///
/// Returns the underlying [`FlowError`] if partitioning fails.
pub fn run_fft_flow_with(elide_by_dependency: bool) -> Result<FftFlow, FlowError> {
    run_fft_flow_on(presets::wildforce(), FFT_UTILIZATION, elide_by_dependency)
}

/// The same FFT design flowed onto an arbitrary 4-PE board — the paper's
/// Sec. 6 portability claim ("without any modifications to the input
/// taskgraph, FFT can be synthesized for different architectures"). A
/// roomier board or a looser utilization yields fewer partitions and
/// differently sized arbiters; the computed transform is identical
/// regardless.
///
/// # Errors
///
/// Returns the underlying [`FlowError`] if partitioning fails (e.g. the
/// board has fewer than four PEs for the Fig. 11 memory affinities).
pub fn run_fft_flow_on(
    board: Board,
    utilization: f64,
    elide_by_dependency: bool,
) -> Result<FftFlow, FlowError> {
    let (graph, names) = build_fft_taskgraph();
    let mut config = FlowConfig::paper();
    config.temporal = config.temporal.with_utilization(utilization);
    config.insertion = config.insertion.with_elision(elide_by_dependency);
    // Fig. 11 memory map.
    for j in 1..=4 {
        config = config
            .with_affinity(format!("ML{j}"), PeId::new(1))
            .with_affinity(format!("MLI{j}"), PeId::new(1))
            .with_affinity(format!("MO{j}"), PeId::new(1))
            .with_affinity(format!("MOI{j}"), PeId::new(1));
    }
    config = config
        .with_affinity("MI1", PeId::new(2))
        .with_affinity("MI3", PeId::new(2))
        .with_affinity("MI2", PeId::new(0))
        .with_affinity("MI4", PeId::new(3))
        // Host-mediated data movement before the last partition: the
        // remaining imaginary-plane column moves to PE2's bank so the two
        // surviving tasks touch disjoint banks.
        .with_stage_affinity(2, "MLI4", PeId::new(2))
        .with_stage_affinity(2, "MOI4", PeId::new(2));
    let result = run_flow(&graph, &board, &config)?;
    Ok(FftFlow {
        graph,
        names,
        board,
        result,
    })
}

impl FftFlow {
    /// Runs the design-rule static analyzer over every temporal
    /// partition, merging the findings into one report with
    /// `partition #N:` location prefixes, in stage order.
    pub fn analyze(&self, config: &AnalyzeConfig) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        for stage in &self.result.stages {
            let stage_report = analyze_plan(&stage.plan, &stage.binding, &stage.merges, config);
            report.absorb(stage_report, &format!("partition #{}: ", stage.index));
        }
        report
    }
}

/// The outcome of simulating one 4x4 tile through all partitions.
#[derive(Debug, Clone)]
pub struct BlockSim {
    /// Cycles consumed per temporal partition.
    pub stage_cycles: Vec<u64>,
    /// Kernel cycle accounting per temporal partition (executed versus
    /// skipped cycles; all-executed under the legacy kernel).
    pub stage_kernel: Vec<KernelStats>,
    /// The combined 2-D FFT output.
    pub output: [[Complex; 4]; 4],
}

impl BlockSim {
    /// Total hardware cycles across the partitions (reconfiguration time
    /// excluded — that is wall-clock, not design cycles).
    pub fn total_cycles(&self) -> u64 {
        self.stage_cycles.iter().sum()
    }

    /// The aggregated kernel accounting across all partitions.
    pub fn kernel_stats(&self) -> KernelStats {
        let mut agg = KernelStats::default();
        for s in &self.stage_kernel {
            agg.absorb(*s);
        }
        agg
    }
}

/// Simulates one tile through every temporal partition, carrying segment
/// contents across partitions by name (the host's job on the real board).
///
/// # Panics
///
/// Panics if any partition's simulation reports a violation — the
/// arbitrated design must run clean by construction.
pub fn simulate_block(flow: &FftFlow, tile: [[i64; 4]; 4]) -> BlockSim {
    simulate_block_with(flow, tile, SimConfig::new())
}

/// [`simulate_block`] under an explicit [`SimConfig`] — the hook for
/// tracing a block, comparing policies, or pinning the legacy kernel as
/// a differential oracle.
///
/// # Panics
///
/// Panics if any partition's simulation reports a violation.
pub fn simulate_block_with(flow: &FftFlow, tile: [[i64; 4]; 4], config: SimConfig) -> BlockSim {
    run_stages(flow, tile, config, None, None)
        .expect("the planned partitions build and load")
        .sim
}

/// [`simulate_block_with`] under an observability session: every
/// partition's system is built with `obs` attached (so the simulator's
/// `sim/*`, `kernel/*` and per-arbiter grant-wait metrics accumulate
/// across partitions), and the whole block is wrapped in an `fft/block`
/// span with one `fft/partition{i}` child per temporal partition.
///
/// # Panics
///
/// Panics if any partition's simulation reports a violation.
pub fn simulate_block_observed(
    flow: &FftFlow,
    tile: [[i64; 4]; 4],
    config: SimConfig,
    obs: &Obs,
) -> BlockSim {
    run_stages(flow, tile, config, Some(obs), None)
        .expect("the planned partitions build and load")
        .sim
}

/// The outcome of a fault-mode block simulation: the block result, the
/// armed partition's fault lifecycle, and the violations it observed
/// (a faulted partition may legitimately trip properties a fault-free
/// one must not).
#[derive(Debug, Clone)]
pub struct FaultedBlockSim {
    /// The per-partition cycles/kernel accounting and combined output.
    pub sim: BlockSim,
    /// Injection/detection/recovery lifecycle of the armed plan.
    pub faults: FaultReport,
    /// Violations observed on the armed partition.
    pub violations: Vec<Violation>,
    /// True when every partition (the armed one included) ran all its
    /// tasks to completion.
    pub completed: bool,
}

/// [`simulate_block_with`] with a seeded [`FaultPlan`] armed on the
/// temporal partition at `stage_index` — the fault-mode entry point for
/// the FFT flow. The other partitions run fault-free and must stay
/// clean; the armed partition is allowed to violate properties (that is
/// the point) and its violations and [`FaultReport`] are returned for
/// inspection instead of panicking.
///
/// # Errors
///
/// Returns [`Error::FaultPlan`] if `stage_index` is out of range or the
/// plan references tasks, arbiters, ports, banks or channels the armed
/// partition's design does not have, and any build/load error the
/// underlying `try_*` APIs surface.
pub fn simulate_block_faulted(
    flow: &FftFlow,
    tile: [[i64; 4]; 4],
    config: SimConfig,
    stage_index: usize,
    plan: &FaultPlan,
) -> Result<FaultedBlockSim, Error> {
    if stage_index >= flow.result.stages.len() {
        return Err(Error::FaultPlan {
            detail: format!(
                "stage index {stage_index} out of range: the flow has {} temporal partition(s)",
                flow.result.stages.len()
            ),
        });
    }
    run_stages(flow, tile, config, None, Some((stage_index, plan)))
}

/// The one stage loop behind every block simulation: seeds the tile
/// into `MI1`..`MI4`, runs the temporal partitions in order carrying
/// segment contents across them by name (the host's job on the real
/// board), arms `fault` — a stage index and its plan — on that one
/// partition, and combines the output planes on the host.
///
/// # Panics
///
/// Panics if a partition without the fault plan reports a violation.
fn run_stages(
    flow: &FftFlow,
    tile: [[i64; 4]; 4],
    config: SimConfig,
    obs: Option<&Obs>,
    fault: Option<(usize, &FaultPlan)>,
) -> Result<FaultedBlockSim, Error> {
    let _block_span = obs.map(|o| o.span("fft/block"));
    let mut memory: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (i, row) in tile.iter().enumerate() {
        memory.insert(
            format!("MI{}", i + 1),
            row.iter().map(|&v| v as u64).collect(),
        );
    }
    let mut stage_cycles = Vec::new();
    let mut stage_kernel = Vec::new();
    let mut faults = FaultReport::default();
    let mut violations = Vec::new();
    let mut completed = true;
    for stage in &flow.result.stages {
        let _stage_span = obs.map(|o| o.span(&format!("fft/partition{}", stage.index)));
        let armed = fault.filter(|&(index, _)| index == stage.index);
        let mut builder = SystemBuilder::from_plan(&stage.plan, &stage.binding, &stage.merges)
            .with_config(config);
        if let Some(o) = obs {
            builder = builder.with_obs(o.clone());
        }
        if let Some((_, plan)) = armed {
            builder = builder.with_faults(plan.clone());
        }
        let mut sys = builder.try_build(&flow.board)?;
        let sub = &stage.plan.graph;
        for seg in sub.segments() {
            if let Some(data) = memory.get(seg.name()) {
                sys.try_load_segment(seg.id(), data)?;
            }
        }
        let report = sys.run(1_000_000);
        if armed.is_some() {
            faults = sys.fault_report();
            violations = report.violations.clone();
        } else {
            assert!(
                report.clean(),
                "partition #{} violated: {:?}",
                stage.index,
                report.violations
            );
        }
        completed &= report.completed;
        stage_cycles.push(report.cycles);
        stage_kernel.push(sys.kernel_stats());
        for seg in sub.segments() {
            memory.insert(
                seg.name().to_owned(),
                sys.try_read_segment(seg.id(), seg.words() as usize)?,
            );
        }
    }
    // Host combine: Out[k][j] = Gr[k][j] + i * Gi[k][j].
    let mut output = [[Complex::default(); 4]; 4];
    for j in 0..4 {
        let mo = &memory[&format!("MO{}", j + 1)];
        let moi = &memory[&format!("MOI{}", j + 1)];
        for k in 0..4 {
            let gr = Complex::new(mo[2 * k] as i64, mo[2 * k + 1] as i64);
            let gi = Complex::new(moi[2 * k] as i64, moi[2 * k + 1] as i64);
            output[k][j] = gr.add(gi.mul_i());
        }
    }
    Ok(FaultedBlockSim {
        sim: BlockSim {
            stage_cycles,
            stage_kernel,
            output,
        },
        faults,
        violations,
        completed,
    })
}

/// Simulates many independent tiles concurrently on the workspace thread
/// pool, one [`simulate_block`] job per tile.
///
/// Tiles share no state — each gets its own [`System`] per partition —
/// so the results are returned in tile order and are byte-identical to
/// mapping [`simulate_block`] sequentially. Temporal partitions *within*
/// a tile stay sequential: memory contents flow from one partition to the
/// next, exactly as the host carries them on the real board.
///
/// # Panics
///
/// Panics if any tile's simulation reports a violation.
///
/// [`System`]: rcarb_sim::engine::System
pub fn simulate_blocks(flow: &FftFlow, tiles: Vec<[[i64; 4]; 4]>) -> Vec<BlockSim> {
    let flow = std::sync::Arc::new(flow.clone());
    rcarb_exec::global_pool().parallel_map(tiles, move |tile| simulate_block(&flow, tile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dft4x4;

    #[test]
    fn flow_reproduces_fig11_partitioning() {
        let flow = run_fft_flow().unwrap();
        // Three temporal partitions (Sec. 5).
        assert_eq!(flow.result.num_stages(), 3);
        // Arbiters per partition: [6, 2], [4], [] — Fig. 11 and text.
        assert_eq!(
            flow.result.arbiter_sizes(),
            vec![vec![6, 2], vec![4], vec![]]
        );
        // Partition membership matches the figure: #0 holds F1..F4, g1r
        // and g2r.
        let stage0: Vec<String> = flow.result.stages[0]
            .plan
            .graph
            .tasks()
            .iter()
            .map(|t| t.name().to_owned())
            .collect();
        assert_eq!(stage0, vec!["F1", "F2", "F3", "F4", "g1r", "g2r"]);
        let stage1: Vec<String> = flow.result.stages[1]
            .plan
            .graph
            .tasks()
            .iter()
            .map(|t| t.name().to_owned())
            .collect();
        assert_eq!(stage1, vec!["g1i", "g2i", "g3r", "g3i"]);
    }

    #[test]
    fn arb6_guards_the_ml_bank() {
        let flow = run_fft_flow().unwrap();
        let stage0 = &flow.result.stages[0];
        let arb6 = &stage0.plan.arbiters[0];
        assert_eq!(arb6.inputs, 6);
        assert_eq!(arb6.name(), "Arb6");
        // Its six clients are exactly the six tasks of the partition.
        assert_eq!(arb6.arbitrated_tasks().len(), 6);
        let arb2 = &stage0.plan.arbiters[1];
        assert_eq!(arb2.inputs, 2);
        // Arb2's clients are F1 and F3 (the MI1/MI3 bank).
        let names: Vec<String> = arb2
            .arbitrated_tasks()
            .iter()
            .map(|&t| stage0.plan.graph.task(t).name().to_owned())
            .collect();
        assert_eq!(names, vec!["F1", "F3"]);
    }

    #[test]
    fn fault_mode_entry_point_is_transparent_when_empty() {
        let flow = run_fft_flow().unwrap();
        let tile: [[i64; 4]; 4] =
            std::array::from_fn(|r| std::array::from_fn(|c| (r * 4 + c + 1) as i64));
        let clean = simulate_block(&flow, tile);
        // An empty seeded plan armed on any partition changes nothing.
        let armed = simulate_block_faulted(&flow, tile, SimConfig::new(), 0, &FaultPlan::seeded(9))
            .expect("empty plan builds");
        assert!(armed.completed);
        assert_eq!(armed.faults.injected, 0);
        assert!(armed.violations.is_empty());
        assert_eq!(armed.sim.output, clean.output);
        assert_eq!(armed.sim.stage_cycles, clean.stage_cycles);
        // An out-of-range partition is a structured error, not a panic.
        let err = simulate_block_faulted(&flow, tile, SimConfig::new(), 9, &FaultPlan::seeded(9));
        assert!(matches!(err, Err(Error::FaultPlan { .. })));
    }

    #[test]
    fn fft_flow_analyzes_clean() {
        let flow = run_fft_flow().unwrap();
        let report = flow.analyze(&AnalyzeConfig::default());
        assert!(report.is_clean(), "{}", report.render_text());
        // Findings from every partition carry its prefix; stage #2 has no
        // arbiters, so all findings come from #0 and #1.
        assert!(report
            .diagnostics()
            .iter()
            .all(|d| d.location.starts_with("partition #")));
    }

    #[test]
    fn elided_fft_flow_also_analyzes_clean() {
        // The A2 ablation (Sec. 5 elision on) must also pass: smaller
        // arbiters plus dependency-ordered bypasses.
        let flow = run_fft_flow_with(true).unwrap();
        let report = flow.analyze(&AnalyzeConfig::default());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn simulated_block_matches_exact_reference() {
        let flow = run_fft_flow().unwrap();
        let tiles = [
            [
                [1, 2, 3, 4],
                [5, 6, 7, 8],
                [9, 10, 11, 12],
                [13, 14, 15, 16],
            ],
            [
                [255, 0, 255, 0],
                [0, 255, 0, 255],
                [7, 7, 7, 7],
                [0, 0, 0, 1],
            ],
            [[0; 4]; 4],
        ];
        for tile in tiles {
            let sim = simulate_block(&flow, tile);
            let expected = dft4x4(std::array::from_fn(|r| {
                std::array::from_fn(|c| Complex::real(tile[r][c]))
            }));
            assert_eq!(sim.output, expected, "tile {tile:?}");
            assert_eq!(sim.stage_cycles.len(), 3);
            assert!(sim.total_cycles() > 0);
        }
    }

    #[test]
    fn parallel_tile_simulation_matches_sequential() {
        let flow = run_fft_flow().unwrap();
        let tiles: Vec<[[i64; 4]; 4]> = (0..6)
            .map(|t| std::array::from_fn(|r| std::array::from_fn(|c| (t * 16 + r * 4 + c) as i64)))
            .collect();
        let par = simulate_blocks(&flow, tiles.clone());
        assert_eq!(par.len(), tiles.len());
        for (tile, sim) in tiles.into_iter().zip(&par) {
            let seq = simulate_block(&flow, tile);
            assert_eq!(sim.output, seq.output);
            assert_eq!(sim.stage_cycles, seq.stage_cycles);
        }
    }

    #[test]
    fn both_kernels_agree_on_a_block() {
        let flow = run_fft_flow().unwrap();
        let tile: [[i64; 4]; 4] =
            std::array::from_fn(|r| std::array::from_fn(|c| (r * 4 + c + 1) as i64));
        let batched = simulate_block(&flow, tile);
        let legacy = simulate_block_with(
            &flow,
            tile,
            SimConfig::new().with_kernel(rcarb_sim::KernelKind::Legacy),
        );
        assert_eq!(batched.output, legacy.output);
        assert_eq!(batched.stage_cycles, legacy.stage_cycles);
        // The legacy kernel never skips; the batched kernel accounts
        // every simulated cycle either as executed or skipped.
        assert!(legacy.kernel_stats().skipped_cycles == 0);
        for (stats, &cycles) in batched.stage_kernel.iter().zip(&batched.stage_cycles) {
            assert_eq!(stats.total_cycles(), cycles);
        }
    }

    #[test]
    fn observed_block_matches_plain_and_nests_partition_spans() {
        let flow = run_fft_flow().unwrap();
        let tile = [[5; 4]; 4];
        let plain = simulate_block(&flow, tile);
        let obs = rcarb_obs::ObsConfig::on().session().unwrap();
        let observed = simulate_block_observed(&flow, tile, SimConfig::new(), &obs);
        assert_eq!(observed.output, plain.output);
        assert_eq!(observed.stage_cycles, plain.stage_cycles);
        // One fft/block root span with one fft/partition{i} child per
        // temporal partition.
        let spans = obs.spans();
        let root = spans.iter().find(|s| s.name == "fft/block").unwrap();
        for stage in &flow.result.stages {
            let child = spans
                .iter()
                .find(|s| s.name == format!("fft/partition{}", stage.index))
                .unwrap();
            assert_eq!(child.parent, Some(root.id));
        }
        // Simulator metrics accumulate across the three partitions.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("sim/runs"), flow.result.stages.len() as u64);
        assert_eq!(snap.counter("sim/cycles_total"), plain.total_cycles());
        rcarb_obs::chrome::validate_trace(&obs.chrome_trace()).expect("valid trace");
    }
}
