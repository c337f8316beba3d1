//! Path-sensitive lockset / hold-window analysis of task programs.
//!
//! This is the dataflow engine behind the `RCA3xx` protocol checks.
//! Each task program is lowered to a [`Cfg`](rcarb_taskgraph::cfg::Cfg)
//! and a lockset fact — the
//! map of arbiter holds live at the program point, each with a grant
//! state and a saturating access counter — is pushed to fixpoint with
//! the [`crate::dataflow`] worklist solver. The analysis is
//! *path-sensitive through grant outcomes*: a bounded
//! `AwaitGrantFor` records its outcome variable, and branching on
//! that variable refines the hold to granted (then-edge) or lapsed
//! (else-edge), so retry/backoff protocols analyze clean instead of
//! leaking phantom open holds into later checks (the historic
//! RCA302/RCA307 false positives on timeout fall-through).
//!
//! ## Domain
//!
//! Per program point:
//!
//! - `holds: ArbiterId → {grant, accesses}` — the lockset. `grant` is
//!   a five-point lattice `No | Yes | Outcome(v) | Lapsed | ⊤`;
//!   `Outcome(v)` means "granted iff variable `v` is non-zero", which
//!   is exactly the correlation a bounded wait leaves behind.
//!   `accesses` counts guarded accesses inside the hold, widening to
//!   ⊤ at loop headers so the fixpoint terminates.
//! - `env: VarId → {0, ≠0, ⊤}` — a tiny constant domain for the
//!   variables that grant outcomes and literal `Set`s touch. Absent
//!   means ⊤.
//!
//! Joins take the union of locksets (a hold open on *some* path stays
//! open — that path is the witness), join grant states pointwise and
//! meet the environments. Every hazard-claiming diagnostic carries a
//! [`Witness`] with the decisive path and the watchdog violation a
//! directed simulation must raise.

use crate::dataflow::{self, Analysis, JoinSemiLattice};
use crate::diag::{DiagCode, Diagnostic, Witness};
use crate::AnalyzeConfig;
use rcarb_core::channel::ChannelMergePlan;
use rcarb_core::insertion::{ArbitratedResource, ArbitrationPlan};
use rcarb_core::memmap::MemoryBinding;
use rcarb_taskgraph::cfg::{EdgeKind, Terminator};
use rcarb_taskgraph::id::{ArbiterId, ChannelId, SegmentId, TaskId, VarId};
use rcarb_taskgraph::program::{Expr, Op};
use std::collections::{BTreeMap, BTreeSet};

/// Saturation ceiling for hold access counters (⊤).
pub(crate) const ACCESS_TOP: u32 = 1 << 20;

/// Longest witness path kept per fact.
const PATH_CAP: usize = 24;

/// Which arbiter guards each resource, and who may bypass it.
pub(crate) struct GuardMap {
    guarded_segments: BTreeMap<SegmentId, ArbiterId>,
    guarded_channels: BTreeMap<ChannelId, ArbiterId>,
    bypass: BTreeSet<(ArbiterId, TaskId)>,
}

impl GuardMap {
    pub(crate) fn new(
        plan: &ArbitrationPlan,
        binding: &MemoryBinding,
        merges: &ChannelMergePlan,
    ) -> Self {
        let mut guarded_segments = BTreeMap::new();
        let mut guarded_channels = BTreeMap::new();
        let mut bypass = BTreeSet::new();
        for arb in &plan.arbiters {
            match arb.resource {
                ArbitratedResource::Bank(bank) => {
                    for s in binding.segments_in(bank) {
                        guarded_segments.insert(s, arb.id);
                    }
                }
                ArbitratedResource::MergedChannel(mi) => {
                    if let Some(merge) = merges.merges().get(mi) {
                        for &c in &merge.logicals {
                            guarded_channels.insert(c, arb.id);
                        }
                    }
                }
            }
            for &t in &arb.bypass {
                bypass.insert((arb.id, t));
            }
        }
        Self {
            guarded_segments,
            guarded_channels,
            bypass,
        }
    }

    /// The arbiter guarding an access op, if any.
    pub(crate) fn guard_of(&self, op: &Op) -> Option<ArbiterId> {
        match op {
            Op::MemRead { segment, .. } | Op::MemWrite { segment, .. } => {
                self.guarded_segments.get(segment).copied()
            }
            Op::Send { channel, .. } => self.guarded_channels.get(channel).copied(),
            _ => None,
        }
    }

    /// True when `task` accesses `arbiter`'s resource directly.
    pub(crate) fn is_bypass(&self, arbiter: ArbiterId, task: TaskId) -> bool {
        self.bypass.contains(&(arbiter, task))
    }
}

/// Three-point constant lattice for tracked variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarVal {
    Zero,
    NonZero,
}

/// Grant state of one open hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GrantVal {
    /// Requested; grant not yet observed.
    No,
    /// Grant observed.
    Yes,
    /// Granted iff the variable is non-zero (bounded-wait outcome).
    Outcome(VarId),
    /// A bounded wait timed out: request still asserted, not granted.
    Lapsed,
    /// Paths disagree.
    Top,
}

fn join_grant(a: GrantVal, b: GrantVal) -> GrantVal {
    use GrantVal::*;
    match (a, b) {
        _ if a == b => a,
        // The outcome variable subsumes both the granted refinement
        // (v ≠ 0 on that path) and the lapsed one (v = 0), so joining
        // either with `Outcome(v)` keeps the exact correlation.
        (Outcome(v), Yes | No | Lapsed) | (Yes | No | Lapsed, Outcome(v)) => Outcome(v),
        _ => Top,
    }
}

/// One open hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HoldInfo {
    grant: GrantVal,
    accesses: u32,
}

/// The per-program-point lockset fact.
#[derive(Debug, Clone)]
pub(crate) struct LockFact {
    holds: BTreeMap<ArbiterId, HoldInfo>,
    env: BTreeMap<VarId, VarVal>,
    /// Decisive edges taken to reach this point (witness metadata;
    /// ignored by the convergence test).
    path: Vec<String>,
}

impl LockFact {
    fn entry() -> Self {
        Self {
            holds: BTreeMap::new(),
            env: BTreeMap::new(),
            path: Vec::new(),
        }
    }

    fn step(&mut self, s: String) {
        if self.path.len() < PATH_CAP {
            self.path.push(s);
        }
    }

    /// True when the hold confers access rights in this state.
    fn granted(&self, h: &HoldInfo) -> bool {
        match h.grant {
            GrantVal::Yes => true,
            GrantVal::Outcome(v) => self.env.get(&v) == Some(&VarVal::NonZero),
            _ => false,
        }
    }

    /// A tracked variable was overwritten: decouple any hold whose
    /// grant state was correlated to it, using the last known value.
    fn decouple(&mut self, var: VarId) {
        let old = self.env.get(&var).copied();
        for h in self.holds.values_mut() {
            if h.grant == GrantVal::Outcome(var) {
                h.grant = match old {
                    Some(VarVal::NonZero) => GrantVal::Yes,
                    Some(VarVal::Zero) => GrantVal::Lapsed,
                    None => GrantVal::Top,
                };
            }
        }
    }
}

impl JoinSemiLattice for LockFact {
    fn join(&mut self, other: &Self, widen: bool) -> bool {
        let mut changed = false;
        let mut hold_added = false;
        // Locksets union: a hold open on some path stays open.
        for (&a, oh) in &other.holds {
            match self.holds.get_mut(&a) {
                None => {
                    self.holds.insert(a, *oh);
                    changed = true;
                    hold_added = true;
                }
                Some(sh) => {
                    let g = join_grant(sh.grant, oh.grant);
                    if g != sh.grant {
                        sh.grant = g;
                        changed = true;
                    }
                    let acc = if widen && oh.accesses > sh.accesses {
                        ACCESS_TOP
                    } else {
                        sh.accesses.max(oh.accesses)
                    };
                    if acc != sh.accesses {
                        sh.accesses = acc;
                        changed = true;
                    }
                }
            }
        }
        // Environments meet: disagreeing or one-sided facts go to ⊤
        // (absence). Facts only ever leave the map at joins, so the
        // iteration is monotone.
        let keys: Vec<VarId> = self.env.keys().copied().collect();
        for v in keys {
            if other.env.get(&v) != self.env.get(&v) {
                self.env.remove(&v);
                changed = true;
            }
        }
        // The path is witness metadata, not part of the lattice (never
        // counted in `changed`). When the other side contributes a
        // hold this side lacked, its path is the one that witnesses
        // the hazard — adopt it.
        if (hold_added || self.path.is_empty()) && !other.path.is_empty() {
            self.path = other.path.clone();
        }
        changed
    }
}

/// The forward analysis instance for one task.
struct LockAnalysis<'a> {
    task: TaskId,
    guards: &'a GuardMap,
}

impl LockAnalysis<'_> {
    fn apply_op(&self, fact: &mut LockFact, op: &Op) {
        match op {
            Op::Set { dst, value } => {
                fact.decouple(*dst);
                match value {
                    Expr::Lit(0) => {
                        fact.env.insert(*dst, VarVal::Zero);
                    }
                    Expr::Lit(_) => {
                        fact.env.insert(*dst, VarVal::NonZero);
                    }
                    _ => {
                        fact.env.remove(dst);
                    }
                }
            }
            Op::MemRead { dst, .. } | Op::Recv { dst, .. } => {
                fact.decouple(*dst);
                fact.env.remove(dst);
                self.count_access(fact, op);
            }
            Op::ReqAssert { arbiter } => {
                fact.holds.insert(
                    *arbiter,
                    HoldInfo {
                        grant: GrantVal::No,
                        accesses: 0,
                    },
                );
            }
            Op::ReqDeassert { arbiter } => {
                fact.holds.remove(arbiter);
            }
            _ => self.count_access(fact, op),
        }
    }

    fn count_access(&self, fact: &mut LockFact, op: &Op) {
        let Some(arb) = self.guards.guard_of(op) else {
            return;
        };
        if self.guards.is_bypass(arb, self.task) {
            return;
        }
        if let Some(h) = fact.holds.get(&arb) {
            if fact.granted(h) {
                let h = fact.holds.get_mut(&arb).expect("hold present");
                h.accesses = h.accesses.saturating_add(1).min(ACCESS_TOP);
            }
        }
    }

    fn apply_edge(&self, fact: &mut LockFact, kind: &EdgeKind) {
        match kind {
            EdgeKind::Seq | EdgeKind::LoopExit | EdgeKind::LoopBack => {}
            EdgeKind::LoopEnter { times } => fact.step(format!("enter loop (×{times})")),
            EdgeKind::BranchThen { cond } => {
                if let Expr::Var(v) = cond {
                    fact.env.insert(*v, VarVal::NonZero);
                }
                fact.step("branch taken (cond != 0)".to_owned());
            }
            EdgeKind::BranchElse { cond } => {
                if let Expr::Var(v) = cond {
                    fact.env.insert(*v, VarVal::Zero);
                }
                fact.step("branch not taken (cond == 0)".to_owned());
            }
            EdgeKind::Granted { arbiter, dst } => {
                if let Some(v) = dst {
                    fact.decouple(*v);
                    fact.env.insert(*v, VarVal::NonZero);
                }
                if let Some(h) = fact.holds.get_mut(arbiter) {
                    h.grant = match dst {
                        Some(v) => GrantVal::Outcome(*v),
                        None => GrantVal::Yes,
                    };
                }
                fact.step(format!("grant from {arbiter} arrives"));
            }
            EdgeKind::TimedOut {
                arbiter,
                dst,
                cycles,
            } => {
                fact.decouple(*dst);
                fact.env.insert(*dst, VarVal::Zero);
                if let Some(h) = fact.holds.get_mut(arbiter) {
                    // The request line is still asserted, but the hold
                    // lapsed ungranted: it matches a later release and
                    // confers no access rights — the satellite fix for
                    // the phantom-hold RCA302/RCA307 false positives.
                    h.grant = GrantVal::Outcome(*dst);
                }
                fact.step(format!("wait on {arbiter} times out after {cycles} cycles"));
            }
        }
    }
}

impl Analysis for LockAnalysis<'_> {
    type Fact = LockFact;

    fn entry_fact(&self) -> LockFact {
        LockFact::entry()
    }

    fn transfer_op(&self, fact: &mut LockFact, op: &Op) {
        self.apply_op(fact, op);
    }

    fn transfer_edge(&self, fact: &mut LockFact, kind: &EdgeKind) {
        self.apply_edge(fact, kind);
    }
}

/// One hold-while-awaiting observation: `task` can reach an await on
/// `awaiting` while `holding` is still held. These are the edges of
/// the cross-task resource-wait graph ([`crate::deadlock`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// Task that holds and waits.
    pub task: TaskId,
    /// Arbiter held across the wait.
    pub holding: ArbiterId,
    /// Arbiter being awaited.
    pub awaiting: ArbiterId,
    /// True when the wait is a bounded `AwaitGrantFor` (a timeout
    /// breaks the potential deadlock).
    pub bounded: bool,
    /// Decisive path to the wait.
    pub path: Vec<String>,
}

/// Everything the per-task lockset pass produces.
pub(crate) struct TaskProtocol {
    pub diags: Vec<Diagnostic>,
    pub wait_edges: Vec<WaitEdge>,
}

fn arbiter_name(plan: &ArbitrationPlan, id: ArbiterId) -> String {
    plan.arbiters
        .iter()
        .find(|a| a.id == id)
        .map(|a| a.name())
        .unwrap_or_else(|| id.to_string())
}

fn check_arbiter_ref(
    plan: &ArbitrationPlan,
    task: TaskId,
    loc: &str,
    id: ArbiterId,
    diags: &mut Vec<Diagnostic>,
) {
    match plan.arbiters.iter().find(|a| a.id == id) {
        None => diags.push(
            Diagnostic::new(
                DiagCode::UnknownArbiter,
                loc.to_owned(),
                format!("protocol op references arbiter {id}, which was never inserted"),
            )
            .with_help("re-run the insertion pass; the program and plan are out of sync"),
        ),
        Some(arb) if arb.port_of(task).is_none() => diags.push(Diagnostic::new(
            DiagCode::UnknownArbiter,
            loc.to_owned(),
            format!(
                "task speaks the protocol to {} but is wired to none of its ports",
                arb.name()
            ),
        )),
        Some(_) => {}
    }
}

/// Runs the lockset fixpoint over one task and reports diagnostics
/// plus resource-wait edges.
pub(crate) fn analyze_task(
    plan: &ArbitrationPlan,
    guards: &GuardMap,
    config: &AnalyzeConfig,
    task: TaskId,
    loc: &str,
) -> TaskProtocol {
    let program = plan.graph.task(task).program();
    let cfg = program.cfg();
    let analysis = LockAnalysis { task, guards };
    let solution = dataflow::solve(&cfg, &analysis);

    let mut diags = Vec::new();
    let mut wait_edges = Vec::new();

    for block in cfg.reachable_blocks() {
        let Some(input) = solution.input(block) else {
            continue;
        };
        let mut fact = input.clone();
        let mut burst_reported = BTreeSet::new();
        for op in &cfg.blocks()[block].ops {
            report_op(
                plan,
                &analysis,
                config,
                &mut fact,
                op,
                loc,
                &mut burst_reported,
                &mut diags,
            );
            analysis.apply_op(&mut fact, op);
        }
        match &cfg.blocks()[block].term {
            Terminator::Await { arbiter, bound, .. } => {
                check_arbiter_ref(plan, task, loc, *arbiter, &mut diags);
                if !fact.holds.contains_key(arbiter) {
                    diags.push(
                        Diagnostic::new(
                            DiagCode::AwaitWithoutRequest,
                            loc.to_owned(),
                            format!(
                                "waiting on a grant from {} without an asserted request",
                                arbiter_name(plan, *arbiter)
                            ),
                        )
                        .with_help("the arbiter never grants a silent task; this waits forever")
                        .with_witness(
                            Witness::expecting("grant_timeout")
                                .for_task(task)
                                .for_arbiter(*arbiter)
                                .along(fact.path.clone()),
                        ),
                    );
                }
                for (&held, _) in fact.holds.iter().filter(|(&a, _)| a != *arbiter) {
                    wait_edges.push(WaitEdge {
                        task,
                        holding: held,
                        awaiting: *arbiter,
                        bounded: bound.is_some(),
                        path: fact.path.clone(),
                    });
                }
            }
            Terminator::Exit => {
                // Transfer already applied above; every hold still
                // open here is unreleased on the witnessed path.
                for &a in fact.holds.keys() {
                    diags.push(
                        Diagnostic::new(
                            DiagCode::MissingRelease,
                            loc.to_owned(),
                            format!(
                                "hold on {} reaches the end of the program without a release",
                                arbiter_name(plan, a)
                            ),
                        )
                        .with_help(
                            "every hold must end with ReqDeassert; other tasks starve otherwise",
                        )
                        .with_witness(
                            Witness::expecting("grant_timeout")
                                .for_task(task)
                                .for_arbiter(a)
                                .along(fact.path.clone()),
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    TaskProtocol { diags, wait_edges }
}

#[allow(clippy::too_many_arguments)]
fn report_op(
    plan: &ArbitrationPlan,
    analysis: &LockAnalysis<'_>,
    config: &AnalyzeConfig,
    fact: &mut LockFact,
    op: &Op,
    loc: &str,
    burst_reported: &mut BTreeSet<ArbiterId>,
    diags: &mut Vec<Diagnostic>,
) {
    match op {
        Op::ReqAssert { arbiter } => {
            check_arbiter_ref(plan, analysis.task, loc, *arbiter, diags);
            if let Some((&held, _)) = fact.holds.iter().next() {
                diags.push(
                    Diagnostic::new(
                        DiagCode::NestedHold,
                        loc.to_owned(),
                        format!(
                            "request to {} asserted while still holding {}",
                            arbiter_name(plan, *arbiter),
                            arbiter_name(plan, held)
                        ),
                    )
                    .with_help("release the held arbiter first; nested holds deadlock")
                    .with_witness(
                        Witness::expecting("no_progress")
                            .for_task(analysis.task)
                            .for_arbiter(*arbiter)
                            .along(fact.path.clone()),
                    ),
                );
            }
        }
        Op::ReqDeassert { arbiter } => {
            check_arbiter_ref(plan, analysis.task, loc, *arbiter, diags);
            if !fact.holds.contains_key(arbiter) {
                diags.push(Diagnostic::new(
                    DiagCode::OrphanRelease,
                    loc.to_owned(),
                    format!(
                        "release of {} without a matching open hold",
                        arbiter_name(plan, *arbiter)
                    ),
                ));
            }
        }
        access => {
            let Some(arb) = analysis.guards.guard_of(access) else {
                return;
            };
            if analysis.guards.is_bypass(arb, analysis.task) {
                return;
            }
            match fact.holds.get(&arb) {
                Some(h) if fact.granted(h) => {
                    // Fire exactly at the access that crosses the
                    // window; a widened (⊤) counter from a loop is
                    // reported once per block instead.
                    let crossing = h.accesses == config.max_burst
                        || (h.accesses == ACCESS_TOP && burst_reported.insert(arb));
                    if crossing {
                        diags.push(
                            Diagnostic::new(
                                DiagCode::BurstExceeded,
                                loc.to_owned(),
                                format!(
                                    "hold on {} performs more than M = {} accesses before \
                                     releasing",
                                    arbiter_name(plan, arb),
                                    config.max_burst
                                ),
                            )
                            .with_help(
                                "split the burst: re-request after every M accesses so waiting \
                                 tasks are served (Fig. 8)",
                            )
                            .with_witness(
                                Witness::expecting("fairness_breach")
                                    .for_task(analysis.task)
                                    .for_arbiter(arb)
                                    .along(fact.path.clone()),
                            ),
                        );
                    }
                }
                _ => diags.push(
                    Diagnostic::new(
                        DiagCode::UnguardedAccess,
                        loc.to_owned(),
                        format!(
                            "access to a resource guarded by {} outside a granted hold",
                            arbiter_name(plan, arb)
                        ),
                    )
                    .with_help("wrap the access in ReqAssert/AwaitGrant … ReqDeassert")
                    .with_witness(
                        Witness::expecting("access_without_grant")
                            .for_task(analysis.task)
                            .for_arbiter(arb)
                            .along(fact.path.clone()),
                    ),
                ),
            }
        }
    }
}
