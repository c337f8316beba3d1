//! Sim-backed counterexample replay of diagnostic witnesses.
//!
//! Every hazard-claiming diagnostic carries a [`Witness`] naming the
//! runtime watchdog violation it predicts (`grant_timeout`,
//! `fairness_breach`, `no_progress`, `access_without_grant`). This
//! module compiles a witness into a *directed* simulation: the design
//! runs under `rcarb-sim` with the corresponding watchdogs armed, on
//! **both** kernels (the batched production kernel and the legacy
//! cycle-scanning reference), and the witness is confirmed only when a
//! matching violation fires on both.
//! A static finding that survives replay is not a heuristic — it is a
//! demonstrated execution.
//!
//! For fairness refutations the replay arms the exact bound the
//! diagnostic claims is breached — `(N-1)(M+2)`, *without* the two
//! cycles of protocol slack the production watchdog adds — via
//! [`SystemBuilder::with_fairness_bound`], so a hold one access past
//! `M` is already caught.

use crate::diag::{DiagCode, Diagnostic, Witness};
use crate::AnalyzeConfig;
use rcarb_board::board::Board;
use rcarb_core::channel::ChannelMergePlan;
use rcarb_core::insertion::ArbitrationPlan;
use rcarb_core::memmap::MemoryBinding;
use rcarb_sim::{KernelKind, SimConfig, SystemBuilder, Violation, WatchdogConfig};

/// Cycles of grant wait the replay treats as a timeout.
const GRANT_TIMEOUT: u64 = 64;
/// Cycles without any task progress before the replay declares a wedge.
const PROGRESS_BOUND: u64 = 128;
/// Hard ceiling on replay length.
const MAX_CYCLES: u64 = 50_000;

/// The outcome of replaying one diagnostic's witness.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Code of the replayed diagnostic.
    pub code: DiagCode,
    /// Location of the replayed diagnostic.
    pub location: String,
    /// Violation kind the witness expects (snake_case).
    pub expect: String,
    /// A matching violation fired on the batched production kernel.
    pub batched_confirmed: bool,
    /// A matching violation fired on the legacy kernel.
    pub legacy_confirmed: bool,
}

impl ReplayOutcome {
    /// True when both kernels confirmed the witness.
    pub fn confirmed(&self) -> bool {
        self.batched_confirmed && self.legacy_confirmed
    }
}

/// Maps a witness's snake_case expectation to the violation kind name
/// reported by [`Violation::kind`].
fn expected_kind(expect: &str) -> Option<&'static str> {
    match expect {
        "grant_timeout" => Some("GrantTimeout"),
        "fairness_breach" => Some("FairnessBreach"),
        "no_progress" => Some("NoProgress"),
        "access_without_grant" => Some("AccessWithoutGrant"),
        _ => None,
    }
}

/// True when `v` is the violation `w` predicted. The kind must match;
/// when both sides name an arbiter they must agree; for
/// `access_without_grant` the offending task must also agree (for the
/// wait-based kinds the *victim* task differs from the witness's
/// offender, so task identity is deliberately not required there).
fn matches_witness(w: &Witness, v: &Violation) -> bool {
    if expected_kind(&w.expect) != Some(v.kind()) {
        return false;
    }
    if let (Some(a), Some(b)) = (w.arbiter, v.arbiter()) {
        if a != b {
            return false;
        }
    }
    if w.expect == "access_without_grant" {
        if let (Some(a), Some(b)) = (w.task, v.task()) {
            if a != b {
                return false;
            }
        }
    }
    true
}

fn run_one(
    plan: &ArbitrationPlan,
    binding: &MemoryBinding,
    merges: &ChannelMergePlan,
    config: &AnalyzeConfig,
    board: &Board,
    witness: &Witness,
    kernel: KernelKind,
) -> Result<bool, rcarb_core::Error> {
    let watchdog = WatchdogConfig::none()
        .with_grant_timeout(GRANT_TIMEOUT)
        .with_progress_bound(PROGRESS_BOUND)
        .with_fairness_m(config.max_burst);
    let mut builder = SystemBuilder::from_plan(plan, binding, merges)
        .with_config(SimConfig::new().with_watchdog(watchdog).with_kernel(kernel));
    if witness.expect == "fairness_breach" {
        if let Some(a) = witness.arbiter {
            if let Some(arb) = plan.arbiters.iter().find(|x| x.id == a) {
                let n = arb.inputs as u64;
                let m = u64::from(config.max_burst);
                builder = builder.with_fairness_bound(a, n.saturating_sub(1).saturating_mul(m + 2));
            }
        }
    }
    let mut sys = builder.try_build(board)?;
    let report = sys.run(MAX_CYCLES);
    Ok(report
        .violations
        .iter()
        .any(|v| matches_witness(witness, v)))
}

/// Replays one diagnostic's witness on both kernels.
///
/// # Errors
///
/// Propagates system-construction errors (unbound segments, dangling
/// arbiter references …) — a design too malformed to *build* cannot
/// be replayed, which is itself diagnosed by the static checks.
pub fn replay_diagnostic(
    plan: &ArbitrationPlan,
    binding: &MemoryBinding,
    merges: &ChannelMergePlan,
    config: &AnalyzeConfig,
    board: &Board,
    diag: &Diagnostic,
) -> Result<Option<ReplayOutcome>, rcarb_core::Error> {
    let Some(w) = &diag.witness else {
        return Ok(None);
    };
    let batched_confirmed = run_one(
        plan,
        binding,
        merges,
        config,
        board,
        w,
        KernelKind::BatchedSoa,
    )?;
    let legacy_confirmed = run_one(plan, binding, merges, config, board, w, KernelKind::Legacy)?;
    Ok(Some(ReplayOutcome {
        code: diag.code,
        location: diag.location.clone(),
        expect: w.expect.clone(),
        batched_confirmed,
        legacy_confirmed,
    }))
}

/// Replays every witness-carrying diagnostic in `diags`.
///
/// # Errors
///
/// Propagates the first system-construction error (see
/// [`replay_diagnostic`]).
pub fn replay_all<'a>(
    plan: &ArbitrationPlan,
    binding: &MemoryBinding,
    merges: &ChannelMergePlan,
    config: &AnalyzeConfig,
    board: &Board,
    diags: impl IntoIterator<Item = &'a Diagnostic>,
) -> Result<Vec<ReplayOutcome>, rcarb_core::Error> {
    let mut out = Vec::new();
    for d in diags {
        if let Some(o) = replay_diagnostic(plan, binding, merges, config, board, d)? {
            out.push(o);
        }
    }
    Ok(out)
}
