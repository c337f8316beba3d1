//! The top-level `Design` facade.
//!
//! [`Design`] composes the paper's whole flow — memory binding (Fig. 2),
//! channel merging (Fig. 3), arbiter insertion (Fig. 8/11), design-rule
//! analysis and cycle-accurate simulation — behind one `Result`-based
//! API, so the common case is four calls:
//!
//! ```
//! use rcarb::prelude::*;
//!
//! let mut b = TaskGraphBuilder::new("demo");
//! let m1 = b.segment("M1", 512, 16);
//! let m2 = b.segment("M2", 512, 16);
//! b.task("T1", Program::build(|p| p.mem_write(m1, Expr::lit(0), Expr::lit(1))));
//! b.task("T2", Program::build(|p| { let _ = p.mem_read(m2, Expr::lit(0)); }));
//! let graph = b.finish().unwrap();
//!
//! let planned = Design::new(graph, presets::duo_small()).plan()?;
//! let analysis = planned.analyze(&AnalyzeConfig::default());
//! assert!(analysis.is_clean());
//! let report = planned.simulate(SimConfig::new(), 10_000)?;
//! assert!(report.clean());
//! # Ok::<(), rcarb::arb::Error>(())
//! ```
//!
//! Every fallible step returns [`rcarb_core::Error`], so one `?` chain
//! covers binding failures, channel-planning failures and unbound
//! segments alike.

use rcarb_analyze::{analyze_plan, replay_all, AnalysisReport, AnalyzeConfig, ReplayOutcome};
use rcarb_board::board::{Board, PeId};
use rcarb_core::channel::{plan_merges, ChannelMergePlan};
use rcarb_core::insertion::{try_insert_arbiters, ArbitrationPlan, InsertionConfig};
use rcarb_core::memmap::{bind_segments, MemoryBinding};
use rcarb_core::Error;
use rcarb_obs::{Obs, ObsConfig};
use rcarb_sim::config::SimConfig;
use rcarb_sim::engine::{RunReport, System, SystemBuilder};
use rcarb_sim::scheduler::KernelStats;
use rcarb_sim::{FaultPlan, FaultReport};
use rcarb_taskgraph::graph::TaskGraph;
use rcarb_taskgraph::id::{SegmentId, TaskId};
use std::collections::BTreeMap;

/// One simulation ask, as a value: the typed request struct every
/// simulation entry point — [`PlannedDesign::simulate`],
/// [`simulate_with_faults`](PlannedDesign::simulate_with_faults),
/// [`simulate_observed`](PlannedDesign::simulate_observed) and the
/// [`Backend`](crate::backend::Backend) service — lowers into before
/// executing. One code path, two transports: the wire layer only
/// serializes this struct, it never re-implements the flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateSpec {
    /// Every knob of the simulated system.
    pub config: SimConfig,
    /// Deterministic fault plan to compile in, if any.
    pub faults: Option<FaultPlan>,
}

impl SimulateSpec {
    /// A fault-free spec running under `config`.
    pub fn new(config: SimConfig) -> Self {
        Self {
            config,
            faults: None,
        }
    }

    /// Adds a deterministic fault plan.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Everything one simulation produces: the run report, the kernel's
/// cycle accounting, and — when faults were injected — the fault
/// lifecycle accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateOutcome {
    /// The run outcome.
    pub report: RunReport,
    /// Executed-versus-skipped cycle accounting.
    pub kernel: KernelStats,
    /// Fault accounting, present exactly when the spec carried a plan.
    pub faults: Option<FaultReport>,
}

/// One analysis ask, as a value: the typed request struct behind
/// [`PlannedDesign::analyze`] and
/// [`analyze_verified`](PlannedDesign::analyze_verified).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeSpec {
    /// Design-rule analyzer configuration.
    pub config: AnalyzeConfig,
    /// Also replay witness-carrying diagnostics on both kernels.
    pub verified: bool,
}

impl AnalyzeSpec {
    /// An unverified (static-only) analysis under `config`.
    pub fn new(config: AnalyzeConfig) -> Self {
        Self {
            config,
            verified: false,
        }
    }

    /// Requests witness replay on both kernels.
    #[must_use]
    pub fn verified(mut self) -> Self {
        self.verified = true;
        self
    }
}

/// A taskgraph targeted at a board, ready to be planned.
///
/// Configure with the builder methods, then call [`plan`](Self::plan) to
/// run binding, merging and arbiter insertion in one step.
#[derive(Debug, Clone)]
pub struct Design {
    graph: TaskGraph,
    board: Board,
    insertion: InsertionConfig,
    affinity: BTreeMap<SegmentId, PeId>,
    placement: Option<BTreeMap<TaskId, PeId>>,
}

impl Design {
    /// A design mapping `graph` onto `board` with the paper's insertion
    /// defaults, no affinities and no channel merging.
    pub fn new(graph: TaskGraph, board: Board) -> Self {
        Self {
            graph,
            board,
            insertion: InsertionConfig::paper(),
            affinity: BTreeMap::new(),
            placement: None,
        }
    }

    /// Replaces the arbiter-insertion configuration.
    #[must_use]
    pub fn with_insertion(mut self, config: InsertionConfig) -> Self {
        self.insertion = config;
        self
    }

    /// Pins a memory segment to a specific PE's bank (the paper's
    /// Fig. 11 memory affinities).
    #[must_use]
    pub fn with_segment_affinity(mut self, segment: SegmentId, pe: PeId) -> Self {
        self.affinity.insert(segment, pe);
        self
    }

    /// Places a task on a PE. Once any placement is given, channel
    /// merging runs over the inter-PE channels; the placement must then
    /// cover every task that writes or reads a channel.
    #[must_use]
    pub fn with_placement(mut self, task: TaskId, pe: PeId) -> Self {
        self.placement
            .get_or_insert_with(BTreeMap::new)
            .insert(task, pe);
        self
    }

    /// The design's taskgraph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The target board.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Runs the flow's planning half: binds segments to banks, merges
    /// inter-PE channels (when a placement was given) and inserts
    /// arbiters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bind`] if the segments do not fit the board's
    /// banks, [`Error::Channel`] if the inter-PE channels exceed the
    /// board's physical connectivity, or [`Error::Request`] if a shared
    /// resource has more concurrent accessors than a synthesizable
    /// arbiter has inputs.
    ///
    /// # Panics
    ///
    /// Panics if a placement was given that misses a task with channels
    /// (see [`with_placement`](Self::with_placement)).
    pub fn plan(self) -> Result<PlannedDesign, Error> {
        let affinity = self.affinity;
        let binding = bind_segments(self.graph.segments(), &self.board, &|s| {
            affinity.get(&s).copied()
        })?;
        let merges = match &self.placement {
            Some(placement) => plan_merges(&self.graph, &self.board, &|t| {
                *placement
                    .get(&t)
                    .unwrap_or_else(|| panic!("task {t} has no placement"))
            })?,
            None => ChannelMergePlan::default(),
        };
        let plan = try_insert_arbiters(&self.graph, &binding, &merges, &self.insertion)?;
        Ok(PlannedDesign {
            board: self.board,
            binding,
            merges,
            plan,
        })
    }
}

/// A fully planned design: bound, merged and arbitrated, ready for
/// analysis and simulation.
#[derive(Debug, Clone)]
pub struct PlannedDesign {
    board: Board,
    binding: MemoryBinding,
    merges: ChannelMergePlan,
    plan: ArbitrationPlan,
}

impl PlannedDesign {
    /// The arbitration plan (arbiter inventory plus rewritten graph).
    pub fn plan(&self) -> &ArbitrationPlan {
        &self.plan
    }

    /// The memory binding.
    pub fn binding(&self) -> &MemoryBinding {
        &self.binding
    }

    /// The channel-merge plan.
    pub fn merges(&self) -> &ChannelMergePlan {
        &self.merges
    }

    /// The target board.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Runs one [`AnalyzeSpec`]: the static analyzer, plus witness
    /// replay on both kernels when the spec asks for verification.
    /// Every analysis entry point — facade and
    /// [`Backend`](crate::backend::Backend) — funnels through here.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundSegment`] (and friends) only in verified
    /// mode, when the design is too malformed to build a replay system
    /// for; unverified analysis cannot fail.
    pub fn analyze_spec(
        &self,
        spec: &AnalyzeSpec,
    ) -> Result<(AnalysisReport, Vec<ReplayOutcome>), Error> {
        let report = analyze_plan(&self.plan, &self.binding, &self.merges, &spec.config);
        let outcomes = if spec.verified {
            replay_all(
                &self.plan,
                &self.binding,
                &self.merges,
                &spec.config,
                &self.board,
                report.diagnostics(),
            )?
        } else {
            Vec::new()
        };
        Ok((report, outcomes))
    }

    /// Runs the six-family design-rule analyzer over the plan.
    pub fn analyze(&self, config: &AnalyzeConfig) -> AnalysisReport {
        let (report, _) = self
            .analyze_spec(&AnalyzeSpec::new(config.clone()))
            .expect("unverified analysis cannot fail");
        report
    }

    /// [`analyze`](Self::analyze) plus counterexample replay: every
    /// witness-carrying diagnostic is compiled into a directed
    /// simulation on **both** kernels with the matching watchdogs
    /// armed, and the report comes back with a [`ReplayOutcome`] per
    /// witness saying whether the predicted violation actually fired.
    /// A confirmed outcome upgrades a static finding into a
    /// demonstrated execution; an unconfirmed one flags either a
    /// conservative over-approximation or an analyzer bug.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundSegment`] (and friends) if the design is
    /// too malformed to build a replay system for.
    pub fn analyze_verified(
        &self,
        config: &AnalyzeConfig,
    ) -> Result<(AnalysisReport, Vec<ReplayOutcome>), Error> {
        self.analyze_spec(&AnalyzeSpec::new(config.clone()).verified())
    }

    /// Builds the system a spec describes — the one construction site
    /// every simulation entry point shares.
    fn build_system(&self, spec: &SimulateSpec, obs: Option<Obs>) -> Result<System, Error> {
        let mut builder = SystemBuilder::from_plan(&self.plan, &self.binding, &self.merges)
            .with_config(spec.config);
        if let Some(plan) = &spec.faults {
            builder = builder.with_faults(plan.clone());
        }
        if let Some(session) = obs {
            builder = builder.with_obs(session);
        }
        builder.try_build(&self.board)
    }

    /// Runs one [`SimulateSpec`]. Every simulation entry point — the
    /// facade wrappers below and the
    /// [`Backend`](crate::backend::Backend) service — funnels through
    /// here, so the in-process and the served flavors of a run cannot
    /// diverge.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundSegment`] if a task accesses a segment
    /// the binding did not place, or [`Error::FaultPlan`] if the spec's
    /// fault plan references resources the design does not have.
    pub fn simulate_spec(
        &self,
        spec: &SimulateSpec,
        max_cycles: u64,
    ) -> Result<SimulateOutcome, Error> {
        let mut sys = self.build_system(spec, None)?;
        let report = sys.run(max_cycles);
        let kernel = sys.kernel_stats();
        let faults = spec.faults.is_some().then(|| sys.fault_report());
        Ok(SimulateOutcome {
            report,
            kernel,
            faults,
        })
    }

    /// Builds a system and runs it for at most `max_cycles` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundSegment`] if a task accesses a segment
    /// the binding did not place.
    pub fn simulate(&self, config: SimConfig, max_cycles: u64) -> Result<RunReport, Error> {
        Ok(self
            .simulate_spec(&SimulateSpec::new(config), max_cycles)?
            .report)
    }

    /// [`simulate`](Self::simulate) plus the kernel's cycle accounting:
    /// how many cycles were executed versus
    /// bulk-skipped by the batched kernel's scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundSegment`] if a task accesses a segment
    /// the binding did not place.
    pub fn simulate_with_stats(
        &self,
        config: SimConfig,
        max_cycles: u64,
    ) -> Result<(RunReport, KernelStats), Error> {
        let out = self.simulate_spec(&SimulateSpec::new(config), max_cycles)?;
        Ok((out.report, out.kernel))
    }

    /// [`simulate`](Self::simulate) under a deterministic fault plan:
    /// builds the system with `plan` compiled in, runs it, and returns
    /// the run report together with the injected/detected/recovered
    /// accounting. Identical seeds produce byte-identical reports on
    /// both kernels; an empty plan is byte-identical to a fault-free
    /// run.
    ///
    /// Watchdog thresholds and recovery policies come from `config`
    /// ([`SimConfig::watchdog`] / [`SimConfig::recovery`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundSegment`] if a task accesses a segment
    /// the binding did not place, or [`Error::FaultPlan`] if the plan
    /// references tasks, arbiters, ports, banks or channels the design
    /// does not have.
    pub fn simulate_with_faults(
        &self,
        config: SimConfig,
        plan: &FaultPlan,
        max_cycles: u64,
    ) -> Result<(RunReport, FaultReport), Error> {
        let spec = SimulateSpec::new(config).with_faults(plan.clone());
        let out = self.simulate_spec(&spec, max_cycles)?;
        Ok((out.report, out.faults.expect("spec carried a fault plan")))
    }

    /// [`simulate`](Self::simulate) under an observability session:
    /// when `obs` is enabled, builds the system with a metrics/tracing
    /// handle attached, wraps the build and the run in `design/*` spans,
    /// snapshots the workspace pool and synthesis-cache counters, and
    /// (when a trace path is configured, e.g. via `RCARB_TRACE`) writes
    /// the Chrome trace file. Returns the session so the caller can
    /// export metrics or render Prometheus text.
    ///
    /// When `obs` is disabled this is exactly [`simulate`](Self::simulate)
    /// — no registry, no spans, no episode recording — and returns
    /// `None` for the session.
    ///
    /// Trace-file write failures are reported on stderr rather than
    /// failing the run: observability must never change the simulation
    /// outcome.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundSegment`] if a task accesses a segment
    /// the binding did not place.
    pub fn simulate_observed(
        &self,
        config: SimConfig,
        max_cycles: u64,
        obs: &ObsConfig,
    ) -> Result<(RunReport, Option<Obs>), Error> {
        let spec = SimulateSpec::new(config);
        let Some(session) = obs.session() else {
            return Ok((self.simulate_spec(&spec, max_cycles)?.report, None));
        };
        let root = session.span("design/simulate");
        let mut sys = {
            let _build = session.span("design/build");
            self.build_system(&spec, Some(session.clone()))?
        };
        let report = {
            let _run = session.span("design/run");
            sys.run(max_cycles)
        };
        drop(root);
        let metrics = session.metrics();
        let cache = rcarb_core::generator::synthesis_cache_stats();
        metrics.gauge_set("cache/synthesis/hits", cache.hits as f64);
        metrics.gauge_set("cache/synthesis/misses", cache.misses as f64);
        metrics.gauge_set("cache/synthesis/entries", cache.entries as f64);
        metrics.gauge_set("cache/synthesis/evictions", cache.evictions as f64);
        let pool = rcarb_exec::global_pool().stats();
        metrics.gauge_set("pool/workers", pool.workers as f64);
        metrics.gauge_set("pool/scheduled", pool.scheduled as f64);
        metrics.gauge_set("pool/executed", pool.executed as f64);
        metrics.gauge_set("pool/stolen", pool.stolen as f64);
        metrics.gauge_set("pool/helped", pool.helped as f64);
        metrics.gauge_set("pool/queue_depth", pool.queue_depth as f64);
        if let Err(e) = obs.export(&session) {
            eprintln!("rcarb: trace export failed: {e}");
        }
        Ok((report, Some(session)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_board::presets;
    use rcarb_core::insertion::insert_arbiters;
    use rcarb_sim::KernelKind;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::program::{Expr, Program};

    fn shared_bank_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("facade");
        let m1 = b.segment("M1", 1024, 16);
        let m2 = b.segment("M2", 1024, 16);
        b.task(
            "T1",
            Program::build(|p| p.mem_write(m1, Expr::lit(0), Expr::lit(1))),
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
    fn facade_runs_the_whole_flow() {
        let planned = Design::new(shared_bank_graph(), presets::duo_small())
            .plan()
            .expect("plans");
        let analysis = planned.analyze(&AnalyzeConfig::default());
        assert!(analysis.is_clean(), "{}", analysis.render_text());
        let report = planned.simulate(SimConfig::new(), 10_000).expect("builds");
        assert!(report.clean() && report.completed);
    }

    #[test]
    fn facade_matches_the_longhand_flow() {
        let graph = shared_bank_graph();
        let board = presets::duo_small();
        let planned = Design::new(graph.clone(), board.clone()).plan().unwrap();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let merges = ChannelMergePlan::default();
        let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
        assert_eq!(planned.binding(), &binding);
        assert_eq!(planned.plan().arbiters, plan.arbiters);
        let facade = planned.simulate(SimConfig::new(), 10_000).unwrap();
        let longhand = SystemBuilder::from_plan(&plan, &binding, &merges)
            .try_build(&board)
            .unwrap()
            .run(10_000);
        assert_eq!(facade.cycles, longhand.cycles);
        assert_eq!(facade.violations, longhand.violations);
    }

    #[test]
    fn facade_surfaces_kernel_stats_for_both_kernels() {
        let mut b = TaskGraphBuilder::new("stats");
        let m = b.segment("M", 64, 16);
        b.task(
            "T",
            Program::build(|p| {
                p.compute(200);
                p.mem_write(m, Expr::lit(0), Expr::lit(9));
            }),
        );
        let planned = Design::new(b.finish().unwrap(), presets::duo_small())
            .plan()
            .unwrap();
        let (batched_report, batched) = planned
            .simulate_with_stats(SimConfig::new(), 10_000)
            .unwrap();
        let (legacy_report, legacy) = planned
            .simulate_with_stats(SimConfig::new().with_kernel(KernelKind::Legacy), 10_000)
            .unwrap();
        assert_eq!(batched_report, legacy_report);
        assert_eq!(batched.total_cycles(), legacy.total_cycles());
        assert_eq!(legacy.skipped_cycles, 0);
        assert!(batched.skipped_cycles > 150, "{batched:?}");
    }

    #[test]
    fn observed_simulation_matches_plain_and_records_spans() {
        let planned = Design::new(shared_bank_graph(), presets::duo_small())
            .plan()
            .unwrap();
        let plain = planned.simulate(SimConfig::new(), 10_000).unwrap();

        // Disabled config: plain path, no session.
        let (report, session) = planned
            .simulate_observed(SimConfig::new(), 10_000, &ObsConfig::off())
            .unwrap();
        assert_eq!(report, plain);
        assert!(session.is_none());

        // Enabled config: identical report plus spans and metrics.
        let (report, session) = planned
            .simulate_observed(SimConfig::new(), 10_000, &ObsConfig::on())
            .unwrap();
        assert_eq!(report, plain);
        let session = session.expect("session when enabled");
        let names: Vec<_> = session.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.contains(&"design/simulate".to_owned()), "{names:?}");
        assert!(names.contains(&"design/build".to_owned()));
        assert!(names.contains(&"design/run".to_owned()));
        let snap = session.snapshot();
        assert_eq!(snap.counter("sim/cycles_total"), report.cycles);
        assert!(snap.gauge("pool/workers").is_some());
        rcarb_obs::chrome::validate_trace(&session.chrome_trace()).expect("valid trace");
    }

    #[test]
    fn analyze_verified_replays_witnesses_on_both_kernels() {
        // Shared-bank contention so the plan actually carries protocol
        // ops; both tasks write the same segment region repeatedly.
        let mut b = TaskGraphBuilder::new("verified");
        let m1 = b.segment("M1", 1024, 16);
        let m2 = b.segment("M2", 1024, 16);
        for (name, m) in [("T1", m1), ("T2", m2)] {
            b.task(
                name,
                Program::build(|p| {
                    for i in 0..4 {
                        p.mem_write(m, Expr::lit(i), Expr::lit(i));
                    }
                }),
            );
        }
        let planned = Design::new(b.finish().unwrap(), presets::duo_small())
            .plan()
            .unwrap();

        // Clean design: certified, nothing to replay but fairness infos.
        let (report, outcomes) = planned.analyze_verified(&AnalyzeConfig::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(outcomes.is_empty(), "{outcomes:?}");

        // Strip one task's releases: the RCA302 witness must replay to a
        // real grant-timeout on both kernels.
        let mut broken = planned.clone();
        let t1 = broken.plan.graph.task_by_name("T1").unwrap().id();
        let ops: Vec<_> = broken
            .plan
            .graph
            .task(t1)
            .program()
            .ops()
            .iter()
            .filter(|op| !matches!(op, rcarb_taskgraph::program::Op::ReqDeassert { .. }))
            .cloned()
            .collect();
        broken
            .plan
            .graph
            .task_mut(t1)
            .set_program(Program::from_ops(ops));
        let (report, outcomes) = broken.analyze_verified(&AnalyzeConfig::default()).unwrap();
        assert!(!report.is_clean());
        let confirmed = outcomes.iter().filter(|o| o.confirmed()).count();
        assert!(confirmed > 0, "{outcomes:?}");
    }

    #[test]
    fn binding_failures_surface_as_errors() {
        let mut b = TaskGraphBuilder::new("toolarge");
        let m = b.segment("HUGE", 1 << 24, 16);
        b.task(
            "T",
            Program::build(|p| p.mem_write(m, Expr::lit(0), Expr::lit(1))),
        );
        let graph = b.finish().unwrap();
        let err = Design::new(graph, presets::duo_small())
            .plan()
            .expect_err("cannot bind");
        assert!(matches!(err, Error::Bind(_)));
    }
}
