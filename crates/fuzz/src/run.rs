//! The differential-oracle runner: one scenario, every kernel, every
//! cross-check.
//!
//! A scenario is executed under both kernels (the legacy reference and
//! the batched SoA production kernel) and its observable state —
//! `RunReport`, VCD trace, final memory image, fault report, and the
//! deterministic obs metrics subset — must be byte-identical across
//! them; the batched kernel's skip accounting must also cover every
//! reported cycle. On top of the kernel differential sit four more
//! oracles:
//!
//! * **policy differential** — prefix round-robin is grant-identical to
//!   the paper's linear FSM scan by construction, so a round-robin
//!   scenario re-run under the other family member must produce the
//!   same report, memory and waveform;
//! * **tool-model differential** — the parallel characterization sweep
//!   over both synthesis tool models must match the sequential
//!   reference row for row;
//! * **certified-clean** — when the static analyzer certifies the plan
//!   clean and the scenario injects no faults, a round-robin run's
//!   armed watchdogs must stay quiet;
//! * **liveness** — a wall-clock budget per kernel run; exceeding it is
//!   recorded as a hang finding even though the run completed.
//!
//! Panics inside a kernel are caught per run and become findings rather
//! than tearing down the fuzzer.

use crate::scenario::{Materialized, Scenario};
use rcarb_analyze::{analyze_plan, AnalyzeConfig};
use rcarb_board::device::SpeedGrade;
use rcarb_core::characterize::Characterization;
use rcarb_core::policy::PolicyKind;
use rcarb_obs::{MetricsSnapshot, ObsConfig};
use rcarb_sim::config::SimConfig;
use rcarb_sim::engine::{RunReport, SystemBuilder};
use rcarb_sim::fault::FaultReport;
use rcarb_sim::scheduler::KernelStats;
use rcarb_sim::KernelKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Kernel execution order; legacy first because it is the reference.
pub const KERNELS: [KernelKind; 2] = [KernelKind::Legacy, KernelKind::BatchedSoa];

/// Everything observable about one kernel's run of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The run report (cycles, completion, violations, grants).
    pub report: RunReport,
    /// The VCD waveform (tracing is always on under the fuzzer).
    pub vcd: Option<String>,
    /// Final contents of every segment, in declaration order.
    pub memory: Vec<Vec<u64>>,
    /// Fault injection/detection/recovery accounting.
    pub faults: FaultReport,
    /// The deterministic obs metrics subset — also the coverage signal.
    pub metrics: MetricsSnapshot,
    /// Kernel-private skip accounting (checked per kernel, never
    /// compared across them).
    pub stats: KernelStats,
}

/// One fuzzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The scenario that produced it.
    pub scenario: Scenario,
    /// What kind of failure.
    pub kind: FindingKind,
    /// Human-oriented detail.
    pub detail: String,
}

/// Failure classes the oracles can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The scenario failed to materialize or build.
    Build,
    /// A kernel panicked.
    Panic(KernelKind),
    /// Two kernels disagreed on observable state.
    KernelDivergence {
        /// The kernel that disagreed with the legacy reference.
        kernel: KernelKind,
        /// Which observable diverged ("report", "vcd", ...).
        field: &'static str,
    },
    /// The legacy kernel claimed to skip, or the batched kernel's
    /// executed and skipped cycles do not add up to the reported run.
    StatsDivergence,
    /// Round-robin and prefix round-robin disagreed.
    PolicyDivergence {
        /// Which observable diverged.
        field: &'static str,
    },
    /// Parallel and sequential characterization sweeps disagreed.
    ToolModelDivergence,
    /// A watchdog fired on an analyzer-certified-clean, fault-free
    /// round-robin scenario.
    CertifiedCleanViolated,
    /// A kernel exceeded the wall-clock budget.
    Hang(KernelKind),
}

impl FindingKind {
    /// A stable key identifying the failure class — the shrinker's
    /// predicate compares these so a shrink step cannot trade one bug
    /// for a different one.
    pub fn key(&self) -> String {
        match self {
            FindingKind::Build => "build".to_string(),
            FindingKind::Panic(k) => format!("panic:{k:?}"),
            FindingKind::KernelDivergence { kernel, field } => {
                format!("kernel:{kernel:?}:{field}")
            }
            FindingKind::StatsDivergence => "stats".to_string(),
            FindingKind::PolicyDivergence { field } => format!("policy:{field}"),
            FindingKind::ToolModelDivergence => "tool-model".to_string(),
            FindingKind::CertifiedCleanViolated => "certified-clean".to_string(),
            FindingKind::Hang(k) => format!("hang:{k:?}"),
        }
    }
}

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Wall-clock budget per kernel run before a [`FindingKind::Hang`]
    /// is recorded.
    pub hang_budget: Duration,
    /// Also run the characterization par-vs-seq differential (skippable
    /// because it is pure compile-side work, identical across kernels).
    pub check_tool_models: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            hang_budget: Duration::from_secs(10),
            check_tool_models: true,
        }
    }
}

/// The outcome of one differential run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Findings from every oracle (empty for a healthy scenario).
    pub findings: Vec<Finding>,
    /// The production (batched) kernel's observation, feeding the coverage
    /// map. `None` when the scenario failed to build or panicked.
    pub observation: Option<Observation>,
}

/// Test-only mutation applied to each kernel observation before the
/// oracles compare them; lets the crate's own tests plant a divergence
/// and watch the pipeline catch it.
#[cfg(feature = "plant-divergence")]
pub type PlantHook<'a> = &'a (dyn Fn(&Scenario, KernelKind, &mut Observation) + Sync);

/// Runs one scenario under every oracle.
pub fn run_scenario(scenario: &Scenario, config: &RunConfig) -> RunOutcome {
    run_scenario_inner(
        scenario,
        config,
        #[cfg(feature = "plant-divergence")]
        None,
    )
}

/// [`run_scenario`] with a planted-divergence hook (test builds only).
#[cfg(feature = "plant-divergence")]
pub fn run_scenario_with_hook(
    scenario: &Scenario,
    config: &RunConfig,
    hook: PlantHook<'_>,
) -> RunOutcome {
    run_scenario_inner(scenario, config, Some(hook))
}

fn run_scenario_inner(
    scenario: &Scenario,
    config: &RunConfig,
    #[cfg(feature = "plant-divergence")] hook: Option<PlantHook<'_>>,
) -> RunOutcome {
    let mut findings = Vec::new();
    let mat = match scenario.materialize() {
        Ok(m) => m,
        Err(e) => {
            findings.push(Finding {
                scenario: scenario.clone(),
                kind: FindingKind::Build,
                detail: e,
            });
            return RunOutcome {
                findings,
                observation: None,
            };
        }
    };

    // One observation per kernel, [legacy, batched].
    let mut obs: Vec<Option<Observation>> = Vec::with_capacity(KERNELS.len());
    for kernel in KERNELS {
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            observe(scenario, &mat, scenario.policy, kernel)
        }));
        let elapsed = started.elapsed();
        match result {
            Ok(Ok(o)) => {
                #[cfg(feature = "plant-divergence")]
                let o = match hook {
                    Some(hook) => {
                        let mut o = o;
                        hook(scenario, kernel, &mut o);
                        o
                    }
                    None => o,
                };
                if elapsed > config.hang_budget {
                    findings.push(Finding {
                        scenario: scenario.clone(),
                        kind: FindingKind::Hang(kernel),
                        detail: format!(
                            "{kernel:?} took {elapsed:?} (budget {:?})",
                            config.hang_budget
                        ),
                    });
                }
                obs.push(Some(o));
            }
            Ok(Err(e)) => {
                findings.push(Finding {
                    scenario: scenario.clone(),
                    kind: FindingKind::Build,
                    detail: format!("{kernel:?}: {e}"),
                });
                obs.push(None);
            }
            Err(panic) => {
                findings.push(Finding {
                    scenario: scenario.clone(),
                    kind: FindingKind::Panic(kernel),
                    detail: panic_message(&panic),
                });
                obs.push(None);
            }
        }
    }

    // Oracle 1: the production kernel against the legacy reference,
    // field by field so the finding names the divergence.
    let [reference, batched] = [&obs[0], &obs[1]];
    if let (Some(reference), Some(candidate)) = (reference, batched) {
        let kernel = KernelKind::BatchedSoa;
        for (field, diverged) in diff_observations(reference, candidate) {
            if diverged {
                findings.push(Finding {
                    scenario: scenario.clone(),
                    kind: FindingKind::KernelDivergence { kernel, field },
                    detail: format!("{kernel:?} disagrees with legacy on {field}"),
                });
            }
        }
    }
    // Oracle 1b: skip accounting, checked per kernel. The legacy loop
    // never skips; the batched kernel accounts every reported cycle as
    // either executed or skipped.
    let legacy_skipped = reference
        .as_ref()
        .is_some_and(|o| o.stats.skipped_cycles != 0);
    let batched_unaccounted = batched
        .as_ref()
        .is_some_and(|o| o.stats.total_cycles() != o.report.cycles);
    if legacy_skipped || batched_unaccounted {
        let stats = |o: &Option<Observation>| o.as_ref().map(|o| (o.stats, o.report.cycles));
        findings.push(Finding {
            scenario: scenario.clone(),
            kind: FindingKind::StatsDivergence,
            detail: format!(
                "(stats, cycles): legacy {:?} batched {:?}",
                stats(reference),
                stats(batched)
            ),
        });
    }

    // Oracle 2: prefix round-robin is grant-identical to the linear
    // scan by construction — run the counterpart policy on the
    // production kernel and require the same observable state.
    if let Some(counterpart) = match scenario.policy {
        PolicyKind::RoundRobin => Some(PolicyKind::PrefixRoundRobin),
        PolicyKind::PrefixRoundRobin => Some(PolicyKind::RoundRobin),
        _ => None,
    } {
        if let Some(base) = batched {
            match catch_unwind(AssertUnwindSafe(|| {
                observe(scenario, &mat, counterpart, KernelKind::BatchedSoa)
            })) {
                Ok(Ok(other)) => {
                    for (field, diverged) in diff_observations(base, &other) {
                        if diverged && field != "metrics" {
                            findings.push(Finding {
                                scenario: scenario.clone(),
                                kind: FindingKind::PolicyDivergence { field },
                                detail: format!(
                                    "{} vs {} disagree on {field}",
                                    scenario.policy, counterpart
                                ),
                            });
                        }
                    }
                }
                Ok(Err(e)) => findings.push(Finding {
                    scenario: scenario.clone(),
                    kind: FindingKind::PolicyDivergence { field: "build" },
                    detail: e,
                }),
                Err(panic) => findings.push(Finding {
                    scenario: scenario.clone(),
                    kind: FindingKind::Panic(KernelKind::BatchedSoa),
                    detail: panic_message(&panic),
                }),
            }
        }
    }

    // Oracle 3: both synthesis tool models, parallel sweep vs the
    // sequential reference, over this scenario's arbiter sizes.
    if config.check_tool_models {
        let mut sizes: Vec<usize> = mat.plan.arbiter_sizes();
        sizes.sort_unstable();
        sizes.dedup();
        if !sizes.is_empty() {
            let par = Characterization::try_sweep_round_robin(sizes.clone(), SpeedGrade::Minus3);
            match par {
                Ok(par) => {
                    let seq = Characterization::sweep_round_robin_seq(sizes, SpeedGrade::Minus3);
                    if par.rows() != seq.rows() {
                        findings.push(Finding {
                            scenario: scenario.clone(),
                            kind: FindingKind::ToolModelDivergence,
                            detail: "parallel sweep differs from sequential reference".to_string(),
                        });
                    }
                }
                Err(e) => findings.push(Finding {
                    scenario: scenario.clone(),
                    kind: FindingKind::ToolModelDivergence,
                    detail: format!("parallel sweep rejected sizes: {e}"),
                }),
            }
        }
    }

    // Oracle 4: certified-clean scenarios must run clean. Restricted to
    // the round-robin family because the analyzer's fairness
    // certificates are stated for bounded-rotation policies.
    if scenario.faults.is_empty()
        && matches!(
            scenario.policy,
            PolicyKind::RoundRobin | PolicyKind::PrefixRoundRobin
        )
    {
        let analysis = analyze_plan(
            &mat.plan,
            &mat.binding,
            &mat.merges,
            &AnalyzeConfig::default().with_max_burst(scenario.max_burst),
        );
        if analysis.is_clean() {
            if let Some(o) = batched {
                if !o.report.clean() {
                    findings.push(Finding {
                        scenario: scenario.clone(),
                        kind: FindingKind::CertifiedCleanViolated,
                        detail: format!(
                            "analyzer certified clean but run reported {:?}",
                            o.report.violations
                        ),
                    });
                }
            }
        }
    }

    RunOutcome {
        findings,
        observation: obs.pop().flatten(),
    }
}

/// Runs `scenario` under one specific kernel and returns its
/// observation — the corpus regression test uses this for explicit
/// cross-kernel byte-identity asserts.
///
/// # Errors
///
/// Returns the build/run error text when the scenario cannot be
/// materialized or simulated.
pub fn observe_kernel(scenario: &Scenario, kernel: KernelKind) -> Result<Observation, String> {
    let mat = scenario.materialize()?;
    observe(scenario, &mat, scenario.policy, kernel)
}

/// Runs one `(policy, kernel)` cell and captures its observation.
fn observe(
    scenario: &Scenario,
    mat: &Materialized,
    policy: PolicyKind,
    kernel: KernelKind,
) -> Result<Observation, String> {
    let obs = ObsConfig::on()
        .session()
        .ok_or_else(|| "obs session unavailable".to_string())?;
    let sim = SimConfig::new()
        .with_policy(policy)
        .with_kernel(kernel)
        .with_trace(true)
        .with_watchdog(mat.watchdog)
        .with_recovery(mat.recovery);
    let mut system = SystemBuilder::from_plan(&mat.plan, &mat.binding, &mat.merges)
        .with_config(sim)
        .with_faults(mat.faults.clone())
        .with_obs(obs.clone())
        .try_build(&mat.board)
        .map_err(|e| format!("build failed: {e}"))?;
    let report = system.run(scenario.max_cycles);
    let memory = mat
        .graph
        .segments()
        .iter()
        .map(|s| {
            system
                .try_read_segment(s.id(), s.words() as usize)
                .map_err(|e| format!("segment read failed: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Observation {
        report,
        vcd: system.vcd(),
        memory,
        faults: system.fault_report(),
        metrics: obs.snapshot().deterministic(),
        stats: system.kernel_stats(),
    })
}

/// Field-by-field comparison; `(name, diverged)` pairs.
fn diff_observations(a: &Observation, b: &Observation) -> [(&'static str, bool); 5] {
    [
        ("report", a.report != b.report),
        ("vcd", a.vcd != b.vcd),
        ("memory", a.memory != b.memory),
        ("fault-report", a.faults != b.faults),
        ("metrics", a.metrics != b.metrics),
    ]
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_generated_scenario_yields_no_findings() {
        // Seed 0 is part of the checked-in corpus; it must stay green.
        let s = Scenario::generate(0);
        let out = run_scenario(&s, &RunConfig::default());
        assert!(
            out.findings.is_empty(),
            "unexpected findings: {:?}",
            out.findings
                .iter()
                .map(|f| (&f.kind, &f.detail))
                .collect::<Vec<_>>()
        );
        assert!(out.observation.is_some());
    }

    #[test]
    fn observations_are_byte_identical_across_repeat_runs() {
        let s = Scenario::generate(5);
        let m = s.materialize().expect("materializes");
        let a = observe(&s, &m, s.policy, rcarb_sim::KernelKind::BatchedSoa).unwrap();
        let b = observe(&s, &m, s.policy, rcarb_sim::KernelKind::BatchedSoa).unwrap();
        assert_eq!(a, b);
    }
}
