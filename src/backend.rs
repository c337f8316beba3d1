//! The [`Backend`] trait: arbitration-as-a-service.
//!
//! Every capability of the stack — arbiter synthesis, design planning,
//! static analysis, cycle-accurate simulation and characterization
//! sweeps — is expressed as a request/response pair serialized through
//! `rcarb-json`. [`InProcessBackend`] answers requests by driving the
//! [`Design`]/[`PlannedDesign`](crate::design::PlannedDesign) facade
//! directly; `rcarb-serve` runs the
//! *same* implementation behind a length-prefixed frame protocol over
//! TCP, a Unix socket, or an in-memory transport. The transport is the
//! only thing that swaps: a response produced in-process is
//! byte-identical to one produced over a socket.
//!
//! ```
//! use rcarb::backend::{Backend, InProcessBackend, SynthesizeRequest};
//!
//! let backend = InProcessBackend::new();
//! let resp = backend
//!     .synthesize(&SynthesizeRequest::round_robin(6))
//!     .unwrap();
//! assert_eq!(resp.states, 12); // C1..C6 and F1..F6
//! ```

use crate::design::{Design, SimulateOutcome, SimulateSpec};
use rcarb_analyze::{AnalysisReport, AnalyzeConfig, ReplayOutcome, Severity};
use rcarb_board::board::Board;
use rcarb_board::device::SpeedGrade;
use rcarb_core::characterize::Characterization;
use rcarb_core::generator::{ArbiterGenerator, ArbiterSpec};
use rcarb_core::policy::PolicyKind;
use rcarb_core::Error;
use rcarb_json::Json;
use rcarb_logic::encode::EncodingStyle;
use rcarb_logic::tools::ToolModel;
use rcarb_sim::config::WatchdogConfig;
use rcarb_sim::engine::RunReport;
use rcarb_sim::scheduler::KernelStats;
use rcarb_sim::{FaultPlan, FaultReport};
use rcarb_taskgraph::graph::TaskGraph;

/// The service surface of the arbitration stack.
///
/// Implementations must be sharable across threads: a server handles
/// many tenants concurrently against one backend, and the synthesis
/// cache plus the exec pool are process-wide, so every session shares
/// warm state automatically.
pub trait Backend: Send + Sync {
    /// Generates and synthesizes one arbiter
    /// (the paper's Figs. 5–7 flow).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Request`] on unknown policy/encoding/tool/grade
    /// names or a spec too wide for the synthesizer (see
    /// [`ArbiterSpec::fits_synthesizer`]), and [`Error::InvalidTaskCount`]
    /// on unsupported sizes.
    fn synthesize(&self, req: &SynthesizeRequest) -> Result<SynthesizeResponse, Error>;

    /// Binds, merges and inserts arbiters for a whole design
    /// (the paper's Figs. 2/3/8 flow) and summarizes the plan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bind`] / [`Error::Channel`] when the design does
    /// not fit the board.
    fn plan(&self, req: &PlanRequest) -> Result<PlanResponse, Error>;

    /// Runs the six-family design-rule analyzer over a design, with
    /// optional counterexample replay on both kernels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bind`] / [`Error::Channel`] when the design does
    /// not plan, or simulation-build errors when replay is requested on
    /// a malformed plan.
    fn analyze(&self, req: &AnalyzeRequest) -> Result<AnalyzeResponse, Error>;

    /// Plans and simulates a design for at most `max_cycles` cycles,
    /// optionally under a deterministic fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Request`] on malformed options, planning errors
    /// when the design does not fit, and [`Error::FaultPlan`] when the
    /// fault plan references resources the design lacks.
    fn simulate(&self, req: &SimulateRequest) -> Result<SimulateResponse, Error>;

    /// Characterizes round-robin arbiters over a size grid, for every
    /// synthesizable (tool, encoding) combination (the paper's
    /// Figs. 6–7 pre-characterization).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Request`] on an unknown grade and
    /// [`Error::InvalidTaskCount`] on out-of-range sizes.
    fn sweep(&self, req: &SweepRequest) -> Result<SweepResponse, Error>;
}

// ---------------------------------------------------------------------------
// Name <-> enum mappings for the wire-facing string fields.
// ---------------------------------------------------------------------------

fn bad_request(detail: impl Into<String>) -> Error {
    Error::Request {
        detail: detail.into(),
    }
}

/// Parses a policy name as rendered by [`PolicyKind`]'s `Display`.
pub fn parse_policy(name: &str) -> Result<PolicyKind, Error> {
    match name {
        "round-robin" => Ok(PolicyKind::RoundRobin),
        "random" => Ok(PolicyKind::Random),
        "fifo" => Ok(PolicyKind::Fifo),
        "static-priority" => Ok(PolicyKind::StaticPriority),
        "preemptive-rr" => Ok(PolicyKind::PreemptiveRoundRobin),
        "prefix-rr" => Ok(PolicyKind::PrefixRoundRobin),
        other => Err(bad_request(format!("unknown policy `{other}`"))),
    }
}

/// Parses an encoding name as rendered by [`EncodingStyle`]'s `Display`.
pub fn parse_encoding(name: &str) -> Result<EncodingStyle, Error> {
    match name {
        "one-hot" => Ok(EncodingStyle::OneHot),
        "compact" => Ok(EncodingStyle::Compact),
        "gray" => Ok(EncodingStyle::Gray),
        other => Err(bad_request(format!("unknown encoding `{other}`"))),
    }
}

/// Parses a synthesis tool by its report name.
pub fn parse_tool(name: &str) -> Result<ToolModel, Error> {
    match name {
        "synplify" => Ok(ToolModel::synplify()),
        "fpga_express" => Ok(ToolModel::fpga_express()),
        other => Err(bad_request(format!("unknown tool `{other}`"))),
    }
}

/// Parses a speed grade as rendered by [`SpeedGrade`]'s `Display`.
pub fn parse_grade(name: &str) -> Result<SpeedGrade, Error> {
    match name {
        "-1" => Ok(SpeedGrade::Minus1),
        "-2" => Ok(SpeedGrade::Minus2),
        "-3" => Ok(SpeedGrade::Minus3),
        "-4" => Ok(SpeedGrade::Minus4),
        other => Err(bad_request(format!("unknown speed grade `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Request/response structs. All serialize via rcarb-json; enum-valued
// knobs travel as their Display names so documents stay greppable.
// ---------------------------------------------------------------------------

/// Parameters for [`Backend::synthesize`].
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizeRequest {
    /// Arbiter size (request/grant pairs), `1..=32`.
    pub n: u64,
    /// Arbitration policy name (see [`parse_policy`]).
    pub policy: String,
    /// Requested FSM encoding (see [`parse_encoding`]; the tool may
    /// override it).
    pub encoding: String,
    /// Synthesis tool model (see [`parse_tool`]).
    pub tool: String,
    /// Device speed grade (see [`parse_grade`]).
    pub grade: String,
    /// Also return the generated VHDL entity.
    pub include_vhdl: bool,
}

impl SynthesizeRequest {
    /// The paper's default ask: a round-robin arbiter of size `n`,
    /// one-hot, Synplify model, the evaluation's `-3` grade.
    pub fn round_robin(n: usize) -> Self {
        Self {
            n: n as u64,
            policy: PolicyKind::RoundRobin.to_string(),
            encoding: EncodingStyle::OneHot.to_string(),
            tool: "synplify".to_owned(),
            grade: SpeedGrade::Minus3.to_string(),
            include_vhdl: false,
        }
    }
}

/// Result of [`Backend::synthesize`].
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizeResponse {
    /// Arbiter size echoed back.
    pub n: u64,
    /// FSM state count (`2n` for the paper's round-robin machines).
    /// Structural policies (fifo, random, static-priority) have no
    /// symbolic FSM and report 0; their area and timing come from the
    /// structural netlist.
    pub states: u64,
    /// Encoding the tool actually used.
    pub encoding_used: String,
    /// Area in CLBs (Fig. 6 metric).
    pub clbs: u64,
    /// 4-input LUTs before H-merging.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// Critical-path LUT levels.
    pub levels: u64,
    /// Maximum clock in MHz (Fig. 7 metric).
    pub fmax_mhz: f64,
    /// The VHDL entity, when requested.
    pub vhdl: Option<String>,
}

/// Parameters for [`Backend::plan`]: a whole design as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// The taskgraph to arbitrate.
    pub graph: TaskGraph,
    /// The target board.
    pub board: Board,
}

/// One inserted arbiter, summarized.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterSummary {
    /// The paper's `Arb<N>` name.
    pub name: String,
    /// Arbiter size N.
    pub inputs: u64,
    /// Pre-characterized area in CLBs.
    pub clbs: u64,
}

/// Result of [`Backend::plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResponse {
    /// Every inserted arbiter, in insertion order.
    pub arbiters: Vec<ArbiterSummary>,
    /// Total pre-characterized arbiter area in CLBs.
    pub total_arbiter_clbs: u64,
    /// Segments placed into banks.
    pub bound_segments: u64,
    /// Banks hosting at least one segment.
    pub used_banks: u64,
    /// Inter-PE channels merged onto shared routes.
    pub merged_channels: u64,
}

/// Parameters for [`Backend::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// The taskgraph to analyze.
    pub graph: TaskGraph,
    /// The target board.
    pub board: Board,
    /// Also replay witness-carrying diagnostics on both kernels.
    pub verified: bool,
}

/// Result of [`Backend::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeResponse {
    /// Design-rule errors.
    pub errors: u64,
    /// Warnings.
    pub warnings: u64,
    /// Informational findings.
    pub infos: u64,
    /// True when no errors surfaced.
    pub clean: bool,
    /// Witness replays that confirmed their diagnostic (verified mode).
    pub replay_confirmed: Option<u64>,
    /// Total witness replays attempted (verified mode).
    pub replay_total: Option<u64>,
    /// The full diagnostic report, in the analyzer's JSON layout.
    pub report: Json,
}

impl AnalyzeResponse {
    /// Builds the wire response from the analyzer's native types.
    pub fn from_report(report: &AnalysisReport, replays: Option<&[ReplayOutcome]>) -> Self {
        let infos = report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Info)
            .count() as u64;
        Self {
            errors: report.num_errors() as u64,
            warnings: report.num_warnings() as u64,
            infos,
            clean: report.is_clean(),
            replay_confirmed: replays.map(|o| o.iter().filter(|r| r.confirmed()).count() as u64),
            replay_total: replays.map(|o| o.len() as u64),
            report: report.to_json(),
        }
    }
}

/// The serializable simulation knobs (the wire subset of
/// [`SimConfig`](rcarb_sim::config::SimConfig); board-internal ablation
/// knobs keep their paper defaults over the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateOptions {
    /// Arbitration policy name (see [`parse_policy`]).
    pub policy: String,
    /// Run on the legacy cycle-scanning kernel (differential oracle).
    pub legacy_kernel: bool,
    /// Gate-level co-simulation of every arbiter.
    pub cosim: bool,
    /// Starvation bound in cycles, `None` for off.
    pub starvation_bound: Option<u64>,
    /// Watchdog grant timeout in cycles, `None` for off.
    pub grant_timeout: Option<u64>,
    /// Watchdog no-progress bound in cycles, `None` for off.
    pub progress_bound: Option<u64>,
    /// Runtime fairness cross-check `M`, `None` for off.
    pub fairness_m: Option<u64>,
    /// Deterministic fault plan to inject, `None` for a clean run.
    pub faults: Option<FaultPlan>,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        Self {
            policy: PolicyKind::RoundRobin.to_string(),
            legacy_kernel: false,
            cosim: false,
            starvation_bound: None,
            grant_timeout: None,
            progress_bound: None,
            fairness_m: None,
            faults: None,
        }
    }
}

impl SimulateOptions {
    /// Lowers the wire options into the typed [`SimulateSpec`] the
    /// facade executes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Request`] on unknown names or out-of-range
    /// values.
    pub fn to_spec(&self) -> Result<SimulateSpec, Error> {
        let mut config = rcarb_sim::config::SimConfig::new()
            .with_policy(parse_policy(&self.policy)?)
            .with_cosim(self.cosim);
        // `legacy_kernel: false` keeps the default (batched SoA) kernel.
        if self.legacy_kernel {
            config = config.with_kernel(rcarb_sim::KernelKind::Legacy);
        }
        if let Some(bound) = self.starvation_bound {
            config = config.with_starvation_bound(bound);
        }
        let mut watchdog = WatchdogConfig::none();
        if let Some(t) = self.grant_timeout {
            watchdog = watchdog.with_grant_timeout(t);
        }
        if let Some(b) = self.progress_bound {
            watchdog = watchdog.with_progress_bound(b);
        }
        if let Some(m) = self.fairness_m {
            let m = u32::try_from(m)
                .map_err(|_| bad_request(format!("fairness_m {m} out of range")))?;
            watchdog = watchdog.with_fairness_m(m);
        }
        config = config.with_watchdog(watchdog);
        Ok(SimulateSpec {
            config,
            faults: self.faults.clone(),
        })
    }
}

/// Parameters for [`Backend::simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// The taskgraph to simulate.
    pub graph: TaskGraph,
    /// The target board.
    pub board: Board,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Simulation knobs.
    pub options: SimulateOptions,
}

/// Result of [`Backend::simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateResponse {
    /// The run outcome (identical across kernels and transports).
    pub report: RunReport,
    /// Kernel cycle accounting (executed vs. bulk-skipped).
    pub kernel: KernelStats,
    /// Fault lifecycle accounting, when a plan was injected.
    pub faults: Option<FaultReport>,
}

impl From<SimulateOutcome> for SimulateResponse {
    fn from(out: SimulateOutcome) -> Self {
        Self {
            report: out.report,
            kernel: out.kernel,
            faults: out.faults,
        }
    }
}

/// Parameters for [`Backend::sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Arbiter sizes to characterize, each in `1..=32`.
    pub ns: Vec<u64>,
    /// Device speed grade (see [`parse_grade`]).
    pub grade: String,
}

/// One characterization row.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Arbiter size.
    pub n: u64,
    /// Synthesis tool name.
    pub tool: String,
    /// Encoding actually used.
    pub encoding: String,
    /// Area in CLBs.
    pub clbs: u64,
    /// Maximum clock in MHz.
    pub fmax_mhz: f64,
    /// 4-input LUTs.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// Critical-path LUT levels.
    pub levels: u64,
}

/// Result of [`Backend::sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResponse {
    /// Characterization rows, in sweep order.
    pub rows: Vec<SweepRow>,
}

rcarb_json::impl_json_struct!(SynthesizeRequest {
    n,
    policy,
    encoding,
    tool,
    grade,
    include_vhdl,
});
rcarb_json::impl_json_struct!(SynthesizeResponse {
    n,
    states,
    encoding_used,
    clbs,
    luts,
    ffs,
    levels,
    fmax_mhz,
    vhdl,
});
rcarb_json::impl_json_struct!(PlanRequest { graph, board });
rcarb_json::impl_json_struct!(ArbiterSummary { name, inputs, clbs });
rcarb_json::impl_json_struct!(PlanResponse {
    arbiters,
    total_arbiter_clbs,
    bound_segments,
    used_banks,
    merged_channels,
});
rcarb_json::impl_json_struct!(AnalyzeRequest {
    graph,
    board,
    verified,
});
rcarb_json::impl_json_struct!(AnalyzeResponse {
    errors,
    warnings,
    infos,
    clean,
    replay_confirmed,
    replay_total,
    report,
});
rcarb_json::impl_json_struct!(SimulateOptions {
    policy,
    legacy_kernel,
    cosim,
    starvation_bound,
    grant_timeout,
    progress_bound,
    fairness_m,
    faults,
});
rcarb_json::impl_json_struct!(SimulateRequest {
    graph,
    board,
    max_cycles,
    options,
});
rcarb_json::impl_json_struct!(SimulateResponse {
    report,
    kernel,
    faults,
});
rcarb_json::impl_json_struct!(SweepRequest { ns, grade });
rcarb_json::impl_json_struct!(SweepRow {
    n,
    tool,
    encoding,
    clbs,
    fmax_mhz,
    luts,
    ffs,
    levels,
});
rcarb_json::impl_json_struct!(SweepResponse { rows });

// ---------------------------------------------------------------------------
// The in-process implementation: the facade IS the backend.
// ---------------------------------------------------------------------------

/// [`Backend`] answered by the [`Design`] facade in this process.
///
/// This is the single production implementation; `rcarb-serve` wraps it
/// behind sockets without adding semantics. It is a zero-sized handle:
/// the synthesis cache and the exec pool it leans on are process-wide.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessBackend;

impl InProcessBackend {
    /// Creates the in-process backend.
    pub fn new() -> Self {
        Self
    }

    fn plan_design(graph: &TaskGraph, board: &Board) -> Result<crate::PlannedDesign, Error> {
        Design::new(graph.clone(), board.clone()).plan()
    }
}

impl Backend for InProcessBackend {
    fn synthesize(&self, req: &SynthesizeRequest) -> Result<SynthesizeResponse, Error> {
        let n = usize::try_from(req.n).map_err(|_| bad_request("arbiter size out of range"))?;
        let spec = ArbiterSpec::try_round_robin(n)?
            .with_policy(parse_policy(&req.policy)?)
            .with_encoding(parse_encoding(&req.encoding)?);
        let tool = parse_tool(&req.tool)?;
        let grade = parse_grade(&req.grade)?;
        if !spec.fits_synthesizer(&tool) {
            return Err(bad_request(format!(
                "a {} arbiter of size {n} with {} exceeds the synthesizer's 64 cube variables",
                req.policy, req.tool
            )));
        }
        let generator = ArbiterGenerator::new().with_grade(grade);
        let synth = generator.synthesize(&spec, &tool);
        Ok(SynthesizeResponse {
            n: req.n,
            states: spec.fsm_states().map_or(0, |s| s as u64),
            encoding_used: synth.encoding_used.to_string(),
            clbs: u64::from(synth.clb.clbs),
            luts: u64::from(synth.clb.luts),
            ffs: u64::from(synth.clb.ffs),
            levels: u64::from(synth.timing.levels),
            fmax_mhz: synth.timing.fmax_mhz,
            vhdl: req
                .include_vhdl
                .then(|| generator.generate(&spec).vhdl().to_owned()),
        })
    }

    fn plan(&self, req: &PlanRequest) -> Result<PlanResponse, Error> {
        let planned = Self::plan_design(&req.graph, &req.board)?;
        let plan = planned.plan();
        Ok(PlanResponse {
            arbiters: plan
                .arbiters
                .iter()
                .map(|a| ArbiterSummary {
                    name: a.name(),
                    inputs: a.inputs as u64,
                    clbs: u64::from(a.clbs),
                })
                .collect(),
            total_arbiter_clbs: u64::from(plan.total_arbiter_clbs()),
            bound_segments: planned.binding().len() as u64,
            used_banks: planned.binding().used_banks().len() as u64,
            merged_channels: planned.merges().merges().len() as u64,
        })
    }

    fn analyze(&self, req: &AnalyzeRequest) -> Result<AnalyzeResponse, Error> {
        let planned = Self::plan_design(&req.graph, &req.board)?;
        let config = AnalyzeConfig::default();
        if req.verified {
            let (report, outcomes) = planned.analyze_verified(&config)?;
            Ok(AnalyzeResponse::from_report(&report, Some(&outcomes)))
        } else {
            Ok(AnalyzeResponse::from_report(
                &planned.analyze(&config),
                None,
            ))
        }
    }

    fn simulate(&self, req: &SimulateRequest) -> Result<SimulateResponse, Error> {
        let planned = Self::plan_design(&req.graph, &req.board)?;
        let spec = req.options.to_spec()?;
        Ok(planned.simulate_spec(&spec, req.max_cycles)?.into())
    }

    fn sweep(&self, req: &SweepRequest) -> Result<SweepResponse, Error> {
        let grade = parse_grade(&req.grade)?;
        let mut ns = Vec::with_capacity(req.ns.len());
        for &n in &req.ns {
            ns.push(usize::try_from(n).map_err(|_| bad_request("arbiter size out of range"))?);
        }
        let table = Characterization::try_sweep_round_robin(ns, grade)?;
        Ok(SweepResponse {
            rows: table
                .rows()
                .iter()
                .map(|r| SweepRow {
                    n: r.n as u64,
                    tool: r.tool.to_owned(),
                    encoding: r.encoding.to_string(),
                    clbs: u64::from(r.clbs),
                    fmax_mhz: r.fmax_mhz,
                    luts: u64::from(r.luts),
                    ffs: u64::from(r.ffs),
                    levels: u64::from(r.levels),
                })
                .collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// Composition helpers: share one backend, or count its executions.
// ---------------------------------------------------------------------------

impl<B: Backend + ?Sized> Backend for std::sync::Arc<B> {
    fn synthesize(&self, req: &SynthesizeRequest) -> Result<SynthesizeResponse, Error> {
        (**self).synthesize(req)
    }

    fn plan(&self, req: &PlanRequest) -> Result<PlanResponse, Error> {
        (**self).plan(req)
    }

    fn analyze(&self, req: &AnalyzeRequest) -> Result<AnalyzeResponse, Error> {
        (**self).analyze(req)
    }

    fn simulate(&self, req: &SimulateRequest) -> Result<SimulateResponse, Error> {
        (**self).simulate(req)
    }

    fn sweep(&self, req: &SweepRequest) -> Result<SweepResponse, Error> {
        (**self).sweep(req)
    }
}

/// A [`Backend`] decorator that counts every execution.
///
/// The chaos-equivalence suite serves requests through a
/// `RecordingBackend` and asserts that the execution count never
/// exceeds the number of distinct requests sent — proof that
/// connection-loss retries cannot double-execute work.
#[derive(Debug, Default)]
pub struct RecordingBackend<B> {
    inner: B,
    calls: std::sync::atomic::AtomicU64,
}

impl<B> RecordingBackend<B> {
    /// Wraps `inner`, starting the count at zero.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            calls: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Backend executions so far (every method counts; `Ping` never
    /// reaches a backend, so it never counts).
    pub fn calls(&self) -> u64 {
        self.calls.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn record(&self) {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl<B: Backend> Backend for RecordingBackend<B> {
    fn synthesize(&self, req: &SynthesizeRequest) -> Result<SynthesizeResponse, Error> {
        self.record();
        self.inner.synthesize(req)
    }

    fn plan(&self, req: &PlanRequest) -> Result<PlanResponse, Error> {
        self.record();
        self.inner.plan(req)
    }

    fn analyze(&self, req: &AnalyzeRequest) -> Result<AnalyzeResponse, Error> {
        self.record();
        self.inner.analyze(req)
    }

    fn simulate(&self, req: &SimulateRequest) -> Result<SimulateResponse, Error> {
        self.record();
        self.inner.simulate(req)
    }

    fn sweep(&self, req: &SweepRequest) -> Result<SweepResponse, Error> {
        self.record();
        self.inner.sweep(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_board::presets;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::program::{Expr, Program};

    fn demo_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("backend");
        let m1 = b.segment("M1", 512, 16);
        let m2 = b.segment("M2", 512, 16);
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
    fn synthesize_answers_the_quickstart() {
        let resp = InProcessBackend::new()
            .synthesize(&SynthesizeRequest {
                include_vhdl: true,
                ..SynthesizeRequest::round_robin(6)
            })
            .unwrap();
        assert_eq!(resp.states, 12);
        assert!(resp.clbs > 0 && resp.fmax_mhz > 0.0);
        assert!(resp.vhdl.unwrap().contains("entity rr_arbiter_n6"));
    }

    #[test]
    fn requests_round_trip_through_json() {
        let req = SimulateRequest {
            graph: demo_graph(),
            board: presets::duo_small(),
            max_cycles: 10_000,
            options: SimulateOptions {
                grant_timeout: Some(64),
                faults: Some(rcarb_sim::FaultPlan::seeded(7)),
                ..SimulateOptions::default()
            },
        };
        let text = rcarb_json::to_string(&req);
        let back: SimulateRequest = rcarb_json::from_str(&text).unwrap();
        assert_eq!(req, back);
        assert_eq!(text, rcarb_json::to_string(&back));
    }

    #[test]
    fn simulate_matches_the_facade() {
        let backend = InProcessBackend::new();
        let resp = backend
            .simulate(&SimulateRequest {
                graph: demo_graph(),
                board: presets::duo_small(),
                max_cycles: 10_000,
                options: SimulateOptions::default(),
            })
            .unwrap();
        let facade = Design::new(demo_graph(), presets::duo_small())
            .plan()
            .unwrap()
            .simulate(rcarb_sim::config::SimConfig::new(), 10_000)
            .unwrap();
        assert_eq!(resp.report, facade);
        assert!(resp.report.clean());

        let text = rcarb_json::to_string(&resp);
        let back: SimulateResponse = rcarb_json::from_str(&text).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn unknown_names_are_request_errors() {
        let backend = InProcessBackend::new();
        let mut req = SynthesizeRequest::round_robin(4);
        req.policy = "lottery".to_owned();
        assert!(matches!(
            backend.synthesize(&req),
            Err(Error::Request { .. })
        ));
        assert!(matches!(
            backend.sweep(&SweepRequest {
                ns: vec![4],
                grade: "-9".to_owned(),
            }),
            Err(Error::Request { .. })
        ));
        assert!(matches!(
            backend.sweep(&SweepRequest {
                ns: vec![40],
                grade: "-3".to_owned(),
            }),
            Err(Error::InvalidTaskCount { .. })
        ));
    }

    #[test]
    fn analyze_reports_counts_and_replays() {
        let backend = InProcessBackend::new();
        let resp = backend
            .analyze(&AnalyzeRequest {
                graph: demo_graph(),
                board: presets::duo_small(),
                verified: true,
            })
            .unwrap();
        assert!(resp.clean);
        assert_eq!(resp.errors, 0);
        assert_eq!(resp.replay_total, Some(0));
        assert!(resp.report.as_object().is_some());
    }
}
