//! The simulation kernel: orchestration of the component layer.
//!
//! # Cycle semantics
//!
//! 1. Tasks whose control-dependency predecessors have all terminated
//!    become runnable.
//! 2. Every arbiter computes its grant word from the request lines as
//!    left at the end of the previous cycle (there is a register between
//!    task and arbiter).
//! 3. Every runnable task issues at most one *costed* instruction.
//!    `LoopInit`/`LoopBack`/`Jump` are free (hardware loop bookkeeping),
//!    and `AwaitGrant` falls through for free on a cycle whose grant is
//!    already visible — which is what makes an uncontended batch cost
//!    exactly two extra cycles (the paper's Fig. 8 accounting).
//! 4. Banks and shared routes resolve the cycle's accesses, detecting
//!    simultaneous-drive conflicts.
//!
//! # Two kernels, one cycle
//!
//! The heavy lifting lives in [`crate::component`]: tasks, arbiters,
//! banks, routes, the monitor and the tracer are self-contained units
//! driven through the phase order above. Two kernels share that cycle
//! semantics and differ only in how they reach the next interesting
//! cycle ([`KernelKind`]):
//!
//! - the **legacy** cycle-scanning loop executes every cycle
//!   unconditionally, component by component — the differential oracle;
//! - the **batched SoA** kernel (the default, and the one production
//!   kernel) consults the [`Scheduler`] after every executed cycle:
//!   when every component proves itself inert (tasks sleeping in
//!   multi-cycle computes or blocked on steady arbiters, no pending
//!   release, no floating select line, no fault window live or just
//!   closed), the clock jumps straight to the next wake and the gap is
//!   bulk-accounted through [`Component::skip`]. Dense cycles execute
//!   through flat structure-of-arrays state (`crate::component::soa`):
//!   request words live in `u64` bitset lanes maintained from
//!   request-line edges, round-robin FSMs step as word-level
//!   parallel-prefix operations, and per-cycle traffic travels in
//!   reused arenas instead of fresh `BTreeMap`s.
//!
//! `tests/kernel_equivalence.rs` holds the two to identical
//! [`RunReport`]s, identical VCD output and identical memory.
//!
//! [`Component::skip`]: crate::component::Component::skip

use crate::arbiter::ArbiterSim;
use crate::channel::{RegisterPlacement, RouteOutcome, RouteSend, RouteState};
use crate::compile::{FlatProgram, Instr};
use crate::component::soa::{BatchedEnv, BatchedState, DenseTables};
use crate::component::{
    ArbiterComponent, BankComponent, Component, ExecCtx, MonitorComponent, RouteComponent,
    TaskComponent, TaskStatus, TracerComponent, Wake,
};
use crate::config::{KernelKind, SimConfig, WatchdogConfig};
use crate::fault::{
    self, FaultController, FaultKind, FaultPlan, FaultReport, FaultTarget, RecoveryPolicy,
};
use crate::memory::{BankAccess, BankModel, BankOutcome};
use crate::monitor::Violation;
use crate::scheduler::{CompId, KernelStats, Scheduler};
use rcarb_board::board::Board;
use rcarb_board::memory::BankId;
use rcarb_core::channel::ChannelMergePlan;
use rcarb_core::insertion::{ArbitratedResource, ArbitrationPlan};
use rcarb_core::memmap::MemoryBinding;
use rcarb_core::policy::PolicyKind;
use rcarb_obs::Obs;
use rcarb_taskgraph::graph::TaskGraph;
use rcarb_taskgraph::id::{ArbiterId, ChannelId, SegmentId, TaskId, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// True when any task program contains a bounded wait
/// (`AwaitGrantFor`) on `arbiter` — the signature of a
/// retry-transformed client, whose outcome guards lengthen each hold.
fn graph_awaits_bounded(graph: &TaskGraph, arbiter: ArbiterId) -> bool {
    use rcarb_taskgraph::program::Op;
    fn scan(ops: &[Op], arbiter: ArbiterId) -> bool {
        ops.iter().any(|op| match op {
            Op::AwaitGrantFor { arbiter: a, .. } => *a == arbiter,
            Op::Repeat { body, .. } => scan(body, arbiter),
            Op::IfNonZero {
                then_ops, else_ops, ..
            } => scan(then_ops, arbiter) || scan(else_ops, arbiter),
            _ => false,
        })
    }
    graph
        .tasks()
        .iter()
        .any(|t| scan(t.program().ops(), arbiter))
}

/// Builds a [`System`] from a (possibly arbitrated) design.
#[derive(Debug)]
pub struct SystemBuilder {
    graph: TaskGraph,
    binding: MemoryBinding,
    merges: ChannelMergePlan,
    arbiters: Vec<rcarb_core::insertion::ArbiterInstance>,
    config: SimConfig,
    faults: FaultPlan,
    obs: Option<Obs>,
    fairness_overrides: BTreeMap<ArbiterId, u64>,
}

impl SystemBuilder {
    /// Starts from an arbitration plan (the normal flow), with the
    /// default [`SimConfig`].
    pub fn from_plan(
        plan: &ArbitrationPlan,
        binding: &MemoryBinding,
        merges: &ChannelMergePlan,
    ) -> Self {
        Self {
            graph: plan.graph.clone(),
            binding: binding.clone(),
            merges: merges.clone(),
            arbiters: plan.arbiters.clone(),
            config: SimConfig::new(),
            faults: FaultPlan::default(),
            obs: None,
            fairness_overrides: BTreeMap::new(),
        }
    }

    /// Starts from an *unarbitrated* graph — used to demonstrate the
    /// conflicts arbitration prevents.
    pub fn unarbitrated(
        graph: &TaskGraph,
        binding: &MemoryBinding,
        merges: &ChannelMergePlan,
    ) -> Self {
        Self {
            graph: graph.clone(),
            binding: binding.clone(),
            merges: merges.clone(),
            arbiters: Vec::new(),
            config: SimConfig::new(),
            faults: FaultPlan::default(),
            obs: None,
            fairness_overrides: BTreeMap::new(),
        }
    }

    /// Replaces the whole simulation configuration in one call — the
    /// preferred way to configure a run.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// The currently configured [`SimConfig`].
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Overrides the fairness-breach threshold of one arbiter, in
    /// cycles. The auto-derived watchdog bound (`(N-1)*(M+2)` plus two
    /// cycles of protocol slack, set by
    /// [`WatchdogConfig::fairness_m`]) is replaced for that arbiter
    /// only; other arbiters keep the derived bound. The static
    /// verifier's counterexample replays use this to hold a run to the
    /// exact bound a diagnostic claims is breached, without the slack.
    #[must_use]
    pub fn with_fairness_bound(mut self, arbiter: ArbiterId, bound: u64) -> Self {
        self.fairness_overrides.insert(arbiter, bound);
        self
    }

    /// Injects a deterministic fault plan into the run. The plan is
    /// validated against the built system in
    /// [`try_build`](Self::try_build); an empty plan leaves the run
    /// byte-identical to an unfaulted one.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attaches an observability session: the run publishes cycle,
    /// grant, wait and fault metrics into it (and records per-arbiter
    /// grant-wait episodes). Without a session the run path is
    /// untouched — reports, VCD and memory stay byte-identical.
    ///
    /// This rides on the builder rather than [`SimConfig`] so the
    /// config stays `Copy`.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Builds the system against `board` (bank shapes come from it).
    ///
    /// # Errors
    ///
    /// - [`rcarb_core::Error::UnboundSegment`] if a task program accesses
    ///   a segment the binding did not place;
    /// - [`rcarb_core::Error::UnknownBank`] if the binding places a
    ///   segment into a bank the board does not have;
    /// - [`rcarb_core::Error::UnknownArbiter`] if a program's protocol
    ///   ops reference an arbiter the plan never instantiated;
    /// - [`rcarb_core::Error::UnknownChannel`] if a program sends or
    ///   receives on a channel the taskgraph does not declare;
    /// - [`rcarb_core::Error::FaultPlan`] if an injected fault plan
    ///   references a task, arbiter port, bank or routed channel the
    ///   built system does not have, or carries a malformed error rate.
    pub fn try_build(self, board: &Board) -> Result<System, rcarb_core::Error> {
        let tasks: Vec<TaskComponent> = self
            .graph
            .tasks()
            .iter()
            .map(|t| TaskComponent::new(t.id(), FlatProgram::compile(t.program())))
            .collect();
        // Validate that every accessed segment is bound.
        for t in self.graph.tasks() {
            for s in t.program().segments_accessed() {
                if self.binding.bank_of(s).is_none() {
                    return Err(rcarb_core::Error::UnboundSegment {
                        segment: s,
                        task: t.name().to_owned(),
                    });
                }
            }
        }
        // Validate that every placed bank exists on the board.
        for b in self.binding.used_banks() {
            if b.index() >= board.banks().len() {
                let segment = self
                    .binding
                    .segments_in(b)
                    .first()
                    .copied()
                    .unwrap_or(SegmentId::new(0));
                return Err(rcarb_core::Error::UnknownBank { bank: b, segment });
            }
        }
        let mut banks: BTreeMap<BankId, BankComponent> = self
            .binding
            .used_banks()
            .into_iter()
            .map(|b| {
                (
                    b,
                    BankComponent::new(BankModel::new(b, board.bank(b).words())),
                )
            })
            .collect();
        // Routes: one per merged channel, plus a private route per
        // unmerged logical channel.
        let mut routes = Vec::new();
        let mut route_of_channel: BTreeMap<ChannelId, usize> = BTreeMap::new();
        for merge in self.merges.merges() {
            let idx = routes.len();
            routes.push(RouteComponent::new(
                RouteState::new(merge.logicals.clone(), self.config.register_placement),
                true,
            ));
            for &c in &merge.logicals {
                route_of_channel.insert(c, idx);
            }
        }
        for c in self.graph.channels() {
            route_of_channel.entry(c.id()).or_insert_with(|| {
                let idx = routes.len();
                routes.push(RouteComponent::new(
                    RouteState::new(vec![c.id()], RegisterPlacement::Receiver),
                    false,
                ));
                idx
            });
        }
        // Validate compiled protocol and channel references: every
        // arbiter op must hit an instantiated arbiter at its id's index,
        // every channel op a routed channel. (Run-path lookups then
        // cannot dangle.)
        for t in &tasks {
            let name = || self.graph.task(t.id()).name().to_owned();
            for instr in t.program().instrs() {
                match *instr {
                    Instr::AwaitGrant { arbiter }
                    | Instr::AwaitGrantFor { arbiter, .. }
                    | Instr::ReqAssert { arbiter }
                    | Instr::ReqDeassert { arbiter } => {
                        let known = self
                            .arbiters
                            .get(arbiter.index())
                            .is_some_and(|inst| inst.id == arbiter);
                        if !known {
                            return Err(rcarb_core::Error::UnknownArbiter {
                                arbiter,
                                task: name(),
                            });
                        }
                    }
                    Instr::Send { channel, .. } | Instr::Recv { channel, .. }
                        if !route_of_channel.contains_key(&channel) =>
                    {
                        return Err(rcarb_core::Error::UnknownChannel {
                            channel,
                            task: name(),
                        });
                    }
                    _ => {}
                }
            }
        }
        // Arbiters and guard maps.
        let mut arbiters = Vec::new();
        let mut segment_guards: BTreeMap<(TaskId, SegmentId), ArbiterId> = BTreeMap::new();
        let mut channel_guards: BTreeMap<(TaskId, ChannelId), ArbiterId> = BTreeMap::new();
        for inst in &self.arbiters {
            let mut sim = ArbiterSim::new(inst.id, inst.ports.clone(), self.config.policy);
            if self.config.cosim
                && matches!(
                    self.config.policy,
                    PolicyKind::RoundRobin
                        | PolicyKind::PreemptiveRoundRobin
                        | PolicyKind::PrefixRoundRobin
                )
            {
                sim = sim.with_cosim();
            }
            match inst.resource {
                ArbitratedResource::Bank(bank) => {
                    for task in inst.arbitrated_tasks() {
                        for s in self.binding.segments_in(bank) {
                            if self
                                .graph
                                .task(task)
                                .program()
                                .segments_accessed()
                                .contains(&s)
                            {
                                segment_guards.insert((task, s), inst.id);
                            }
                        }
                    }
                }
                ArbitratedResource::MergedChannel(mi) => {
                    let merge = &self.merges.merges()[mi];
                    for task in inst.arbitrated_tasks() {
                        for &c in &merge.logicals {
                            if self.graph.channel(c).writer() == task {
                                channel_guards.insert((task, c), inst.id);
                            }
                        }
                    }
                }
            }
            arbiters.push(ArbiterComponent::new(sim));
        }
        // Shared-bank protocol clients drive the Fig. 4 select line; an
        // arbitrated bank that hosts no placement still takes part in
        // the discipline (with an empty storage array it never sees
        // accesses, only idle drives).
        for inst in &self.arbiters {
            if let ArbitratedResource::Bank(bank) = inst.resource {
                let words = board
                    .banks()
                    .get(bank.index())
                    .map(|mb| mb.words())
                    .unwrap_or(0);
                banks
                    .entry(bank)
                    .or_insert_with(|| BankComponent::new(BankModel::new(bank, words)))
                    .set_clients(inst.arbitrated_tasks(), self.config.select_line);
            }
        }
        let tracer = self.config.trace.then(|| TracerComponent::new(&arbiters));
        // Compile the fault plan against the built system: every
        // referenced resource must exist, so run-path injection lookups
        // cannot dangle.
        let faults = if self.faults.is_empty() {
            None
        } else {
            let fc = FaultController::new(&self.faults, |c| route_of_channel.get(&c).copied());
            let known_arbiter = |arbiter: ArbiterId| {
                self.arbiters
                    .get(arbiter.index())
                    .is_some_and(|inst| inst.id == arbiter)
            };
            for (kind, window) in fc.planned() {
                let detail = match *kind {
                    FaultKind::StuckRequest { task, arbiter, .. } => {
                        if task.index() >= tasks.len() {
                            Some(format!("unknown task {task}"))
                        } else if !known_arbiter(arbiter) {
                            Some(format!("unknown arbiter {arbiter}"))
                        } else if arbiters[arbiter.index()].port_of(task).is_none() {
                            Some(format!("task {task} drives no port of {arbiter}"))
                        } else {
                            None
                        }
                    }
                    FaultKind::StuckGrant { arbiter, port, .. }
                    | FaultKind::GrantGlitch { arbiter, port } => {
                        if !known_arbiter(arbiter) {
                            Some(format!("unknown arbiter {arbiter}"))
                        } else if port >= arbiters[arbiter.index()].num_ports() {
                            Some(format!("{arbiter} has no port {port}"))
                        } else {
                            None
                        }
                    }
                    FaultKind::ChannelBitFlip { channel } => (!route_of_channel
                        .contains_key(&channel))
                    .then(|| format!("channel {channel} is not routed")),
                    FaultKind::BankReadError { bank, per_mille } => {
                        if !banks.contains_key(&bank) {
                            Some(format!("bank {bank} is not modelled"))
                        } else if per_mille > 1000 {
                            Some(format!("error rate {per_mille} exceeds 1000 per mille"))
                        } else {
                            None
                        }
                    }
                    FaultKind::TaskHang { task } => {
                        (task.index() >= tasks.len()).then(|| format!("unknown task {task}"))
                    }
                };
                if let Some(detail) = detail {
                    return Err(rcarb_core::Error::FaultPlan {
                        detail: format!("{}: {detail}", fault::describe(kind, window)),
                    });
                }
            }
            Some(fc)
        };
        let mut monitor = MonitorComponent::with_watchdog(self.config.watchdog);
        if self.obs.is_some() {
            monitor.enable_episode_recording();
        }
        if let Some(m) = self.config.watchdog.fairness_m {
            // The paper's bound: behind an N-port arbiter with burst
            // length M, a conforming competitor holds the resource for
            // at most M + 2 cycles, so no wait exceeds (N-1)*(M+2) plus
            // the two protocol registration cycles of the waiter's own
            // request. Retry-transformed clients (bounded waits) run
            // their two outcome-guard branches *inside* the hold, so
            // each competing hold occupies up to two extra cycles.
            for a in &arbiters {
                let n = a.num_ports() as u64;
                let hold = u64::from(m)
                    + 2
                    + if graph_awaits_bounded(&self.graph, a.id()) {
                        2
                    } else {
                        0
                    };
                monitor.set_fairness_bound(a.id(), n.saturating_sub(1) * hold + 2);
            }
        }
        // Explicit per-arbiter overrides win over the derived bound
        // (and work with `fairness_m` unset).
        for (&a, &b) in &self.fairness_overrides {
            monitor.set_fairness_bound(a, b);
        }
        // Board banks not used by the binding are spares a quarantine
        // may migrate a faulted bank's role onto.
        let spare_banks: Vec<(BankId, u32)> = board
            .banks()
            .iter()
            .enumerate()
            .map(|(i, mb)| (BankId::new(i as u32), mb.words()))
            .filter(|(b, _)| !banks.contains_key(b))
            .collect();
        let wakes = self.obs.as_ref().map(|_| WakeCounters {
            tasks: vec![0; tasks.len()],
            arbiters: 0,
            banks: 0,
            routes: 0,
        });
        let banks = BankSet::from_map(banks);
        // The one place the deprecated `Event` alias is resolved: it
        // runs the batched kernel.
        #[allow(deprecated)]
        let batched = matches!(
            self.config.kernel,
            KernelKind::BatchedSoa | KernelKind::Event
        );
        let soa = batched.then(|| {
            BatchedState::new(
                &arbiters,
                &tasks,
                banks.ids(),
                routes.len(),
                &self.binding,
                &segment_guards,
                &channel_guards,
                &route_of_channel,
                self.config.policy,
                self.config.cosim,
            )
        });
        Ok(System {
            graph: self.graph,
            binding: self.binding,
            tasks,
            banks,
            routes,
            route_of_channel,
            arbiters,
            segment_guards,
            channel_guards,
            starvation_bound: self.config.starvation_bound,
            select_line: self.config.select_line,
            soa,
            watchdog: self.config.watchdog,
            recovery: self.config.recovery,
            cycle: 0,
            monitor,
            scheduler: Scheduler::new(),
            tracer,
            faults,
            last_progress: 0,
            last_sig: (0, 0),
            bank_fault_counts: BTreeMap::new(),
            channel_fault_counts: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            rerouted: BTreeSet::new(),
            spare_banks,
            obs: self.obs,
            wakes,
        })
    }
}

/// The modelled banks as a slab: components at stable slots (the dense
/// indices the batched kernel's arena is addressed by), plus an ordered
/// id-to-slot index preserving the `BTreeMap` iteration order the
/// legacy kernel's violation sequences depend on. Quarantine appends
/// a spare bank at a fresh slot without disturbing existing ones.
#[derive(Debug)]
struct BankSet {
    comps: Vec<BankComponent>,
    ids: Vec<BankId>,
    index: BTreeMap<BankId, usize>,
}

impl BankSet {
    fn from_map(map: BTreeMap<BankId, BankComponent>) -> Self {
        let mut set = Self {
            comps: Vec::new(),
            ids: Vec::new(),
            index: BTreeMap::new(),
        };
        for (id, comp) in map {
            set.insert(id, comp);
        }
        set
    }

    fn insert(&mut self, id: BankId, comp: BankComponent) {
        debug_assert!(!self.index.contains_key(&id), "bank {id} already modelled");
        self.index.insert(id, self.comps.len());
        self.ids.push(id);
        self.comps.push(comp);
    }

    fn len(&self) -> usize {
        self.comps.len()
    }

    /// Slot-to-id mapping, in slot order.
    fn ids(&self) -> &[BankId] {
        &self.ids
    }

    fn get(&self, id: BankId) -> Option<&BankComponent> {
        self.index.get(&id).map(|&s| &self.comps[s])
    }

    fn get_mut(&mut self, id: BankId) -> Option<&mut BankComponent> {
        self.index.get(&id).map(|&s| &mut self.comps[s])
    }

    fn slot_mut(&mut self, slot: u32) -> &mut BankComponent {
        &mut self.comps[slot as usize]
    }

    /// The components in id order (the legacy kernel's map order).
    fn values_ordered(&self) -> impl Iterator<Item = &BankComponent> {
        self.index.values().map(|&s| &self.comps[s])
    }

    /// Visits every bank mutably in id order, with its slot and id.
    fn for_each_ordered_mut(&mut self, mut f: impl FnMut(u32, BankId, &mut BankComponent)) {
        let Self { comps, index, .. } = self;
        for (&id, &slot) in index.iter() {
            f(slot as u32, id, &mut comps[slot]);
        }
    }
}

/// Per-component execution counters, kept only when an observability
/// session is attached (the runtime analogue of the scheduler's wake
/// list: how many cycles each component actually stepped).
#[derive(Debug)]
struct WakeCounters {
    /// Executed steps per task, indexed like `System::tasks`.
    tasks: Vec<u64>,
    /// Arbiter steps summed over all arbiters.
    arbiters: u64,
    /// Bank resolutions (one per bank with accesses per cycle).
    banks: u64,
    /// Route resolutions (one per route with sends per cycle).
    routes: u64,
}

/// Per-task summary in a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskStats {
    /// The task.
    pub task: TaskId,
    /// First running cycle.
    pub started_at: Option<u64>,
    /// Cycle the task completed.
    pub finished_at: Option<u64>,
    /// Cycles spent blocked (grant or data waits).
    pub stall_cycles: u64,
    /// Cycles spent issuing instructions.
    pub busy_cycles: u64,
}

/// The outcome of a run.
///
/// Derives equality so the two kernels can be held to *identical*
/// reports by the equivalence suite; kernel-private accounting (cycles
/// executed versus skipped) lives in [`System::kernel_stats`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// True when every task terminated.
    pub completed: bool,
    /// Every property violation observed.
    pub violations: Vec<Violation>,
    /// Per-task statistics.
    pub task_stats: Vec<TaskStats>,
    /// Grants issued per arbiter.
    pub arbiter_grants: Vec<(ArbiterId, u64)>,
    /// Per-port grant counts per arbiter (delivered bandwidth split).
    pub arbiter_port_grants: Vec<(ArbiterId, Vec<u64>)>,
    /// Worst grant wait observed anywhere.
    pub worst_wait: u64,
}

rcarb_json::impl_json_struct!(TaskStats {
    task,
    started_at,
    finished_at,
    stall_cycles,
    busy_cycles,
});
rcarb_json::impl_json_struct!(RunReport {
    cycles,
    completed,
    violations,
    task_stats,
    arbiter_grants,
    arbiter_port_grants,
    worst_wait,
});

impl RunReport {
    /// True when the run completed with no violations.
    pub fn clean(&self) -> bool {
        self.completed && self.violations.is_empty()
    }

    /// Stats for one task, if it exists in this report.
    pub fn try_task(&self, task: TaskId) -> Option<&TaskStats> {
        self.task_stats.iter().find(|s| s.task == task)
    }

    /// Stats for one task.
    ///
    /// # Panics
    ///
    /// Panics if the task is unknown; use [`try_task`](Self::try_task)
    /// to handle the miss.
    pub fn task(&self, task: TaskId) -> &TaskStats {
        self.try_task(task).expect("unknown task")
    }
}

/// A ready-to-run simulated system.
#[derive(Debug)]
pub struct System {
    graph: TaskGraph,
    binding: MemoryBinding,
    tasks: Vec<TaskComponent>,
    banks: BankSet,
    routes: Vec<RouteComponent>,
    route_of_channel: BTreeMap<ChannelId, usize>,
    arbiters: Vec<ArbiterComponent>,
    segment_guards: BTreeMap<(TaskId, SegmentId), ArbiterId>,
    channel_guards: BTreeMap<(TaskId, ChannelId), ArbiterId>,
    starvation_bound: u64,
    select_line: rcarb_core::line::SharedLineKind,
    /// The batched kernel's SoA mirror; `Some` exactly when the run
    /// uses [`KernelKind::BatchedSoa`], `None` for the legacy kernel.
    soa: Option<BatchedState>,
    watchdog: WatchdogConfig,
    recovery: RecoveryPolicy,
    cycle: u64,
    monitor: MonitorComponent,
    scheduler: Scheduler,
    tracer: Option<TracerComponent>,
    /// The compiled fault plan, when this run injects faults.
    faults: Option<FaultController>,
    /// Last cycle that advanced any task (progress watchdog).
    last_progress: u64,
    /// Progress signature at `last_progress`: total busy cycles and
    /// completed-task count.
    last_sig: (u64, usize),
    /// Detected read faults per bank (quarantine threshold counter).
    bank_fault_counts: BTreeMap<BankId, u32>,
    /// Detected bit flips per channel (re-route threshold counter).
    channel_fault_counts: BTreeMap<ChannelId, u32>,
    /// Banks already migrated off (quarantine fires once per bank).
    quarantined: BTreeSet<BankId>,
    /// Channels already moved to a fresh route.
    rerouted: BTreeSet<ChannelId>,
    /// Unused board banks a quarantine may migrate onto, with their
    /// capacity in words.
    spare_banks: Vec<(BankId, u32)>,
    /// The attached observability session, when one was configured.
    obs: Option<Obs>,
    /// Per-component execution counters; `Some` exactly when `obs` is.
    wakes: Option<WakeCounters>,
}

impl System {
    /// Loads `data` into a segment (via its bank placement) before a run.
    ///
    /// # Errors
    ///
    /// Returns [`rcarb_core::Error::UnboundSegment`] if the segment has
    /// no placement, or [`rcarb_core::Error::UnknownBank`] if its bank
    /// is not modelled.
    ///
    /// # Panics
    ///
    /// Still panics if `data` overruns the segment — that is a
    /// host-side programming error, not a malformed plan.
    pub fn try_load_segment(
        &mut self,
        segment: SegmentId,
        data: &[u64],
    ) -> Result<(), rcarb_core::Error> {
        let Some(place) = self.binding.placement(segment) else {
            return Err(rcarb_core::Error::UnboundSegment {
                segment,
                task: "host".to_owned(),
            });
        };
        let seg = self.graph.segment(segment);
        assert!(
            data.len() <= seg.words() as usize,
            "data overruns segment {segment}"
        );
        let Some(bank) = self.banks.get_mut(place.bank) else {
            return Err(rcarb_core::Error::UnknownBank {
                bank: place.bank,
                segment,
            });
        };
        for (i, &v) in data.iter().enumerate() {
            bank.set_word(place.offset + i as u32, v);
        }
        Ok(())
    }

    /// Reads `len` words back out of a segment after a run.
    ///
    /// # Errors
    ///
    /// Returns [`rcarb_core::Error::UnboundSegment`] if the segment has
    /// no placement, or [`rcarb_core::Error::UnknownBank`] if its bank
    /// is not modelled.
    ///
    /// # Panics
    ///
    /// Still panics if the range overruns the segment.
    pub fn try_read_segment(
        &self,
        segment: SegmentId,
        len: usize,
    ) -> Result<Vec<u64>, rcarb_core::Error> {
        let Some(place) = self.binding.placement(segment) else {
            return Err(rcarb_core::Error::UnboundSegment {
                segment,
                task: "host".to_owned(),
            });
        };
        let seg = self.graph.segment(segment);
        assert!(
            len <= seg.words() as usize,
            "range overruns segment {segment}"
        );
        let Some(bank) = self.banks.get(place.bank) else {
            return Err(rcarb_core::Error::UnknownBank {
                bank: place.bank,
                segment,
            });
        };
        Ok((0..len)
            .map(|i| bank.word(place.offset + i as u32))
            .collect())
    }

    /// Applies every outstanding deferred blocked-cycle count (batched
    /// kernel only; no-op elsewhere): stall cycles, bulk starvation
    /// ticks, and wake accounting, exactly as if each parked task had
    /// been stepped on every cycle it sat waiting. Called before
    /// recovery may mutate task state and before the run report reads
    /// the stall/starvation totals.
    fn flush_deferred_waits(&mut self) {
        let cycle = self.cycle;
        let Self {
            tasks,
            monitor,
            wakes,
            soa,
            ..
        } = self;
        let Some(soa) = soa.as_mut() else { return };
        for (i, n) in soa.deferred_waits.iter_mut().enumerate() {
            if *n == 0 {
                continue;
            }
            let span = std::mem::take(n);
            tasks[i].note_stalled(span);
            if let Some(a) = tasks[i].plain_grant_wait() {
                let vs = monitor.tick_waiting_n(tasks[i].id(), a, span, cycle - span);
                debug_assert!(vs.is_empty(), "deferred wait crossed an armed bound");
            }
            if let Some(w) = wakes.as_mut() {
                w.tasks[i] += span;
            }
        }
    }

    /// Runs until every task completes, `max_cycles` elapse, or the
    /// no-progress watchdog halts a deadlocked run recovery cannot
    /// restart.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        let progress_bound = self.watchdog.progress_bound;
        let skipping = self.soa.is_some();
        while self.cycle < max_cycles && !self.all_done() {
            // Deadlock/livelock watchdog: every kernel measures the gap
            // in *simulated* cycles since the last cycle that advanced
            // any task, so they fire at the identical cycle.
            if progress_bound != u64::MAX && self.cycle - self.last_progress >= progress_bound {
                // Recovery may scrub or re-route task state; settle all
                // deferred wait accounting first.
                self.flush_deferred_waits();
                let from = self.monitor.violations().len();
                self.monitor.push(Violation::NoProgress {
                    cycle: self.cycle,
                    stalled: progress_bound,
                });
                if self.process_new_violations(from) {
                    // Recovery restarted the protocol: grant a fresh
                    // progress window and keep running.
                    self.last_progress = self.cycle;
                    if skipping {
                        self.refresh_batched();
                    }
                } else {
                    break;
                }
            }
            if skipping {
                let skippable = self.clamp_skip(self.scheduler.skippable(self.cycle, max_cycles));
                if skippable > 0 {
                    self.skip_cycles(skippable);
                    continue;
                }
            }
            let from = self.monitor.violations().len();
            if skipping {
                self.step_batched();
            } else {
                self.step_cycle();
            }
            if self.faults.is_some() {
                self.process_new_violations(from);
            }
            self.note_progress();
            if skipping {
                self.refresh_batched();
            }
        }
        self.flush_deferred_waits();
        let completed = self.all_done();
        let mut violations = self.monitor.violations().to_vec();
        violations.extend(self.monitor.starvation_violations(self.starvation_bound));
        for a in &self.arbiters {
            if a.cosim_mismatches() > 0 {
                violations.push(Violation::CosimMismatch {
                    arbiter: a.id(),
                    cycles: a.cosim_mismatches(),
                });
            }
        }
        let report = RunReport {
            cycles: self.cycle,
            completed,
            violations,
            task_stats: self
                .tasks
                .iter()
                .map(|t| TaskStats {
                    task: t.id(),
                    started_at: t.started_at(),
                    finished_at: t.finished_at(),
                    stall_cycles: t.stall_cycles(),
                    busy_cycles: t.busy_cycles(),
                })
                .collect(),
            arbiter_grants: self
                .arbiters
                .iter()
                .map(|a| (a.id(), a.grants_issued()))
                .collect(),
            arbiter_port_grants: self
                .arbiters
                .iter()
                .map(|a| (a.id(), a.port_grants().to_vec()))
                .collect(),
            worst_wait: self.monitor.global_worst(),
        };
        self.flush_obs(&report);
        report
    }

    /// Publishes the run's outcome into the attached observability
    /// session (no-op without one). Counters accumulate across runs
    /// sharing a session; gauges reflect the latest run. The `sim/*`
    /// and `fault/*` series derive from kernel-independent state, so
    /// they match exactly across the batched and legacy kernels; the
    /// `kernel/*` series expose the kernel's own execute/skip split
    /// and are excluded from the deterministic snapshot.
    fn flush_obs(&self, report: &RunReport) {
        let Some(obs) = &self.obs else { return };
        let m = obs.metrics();
        m.counter_add("sim/runs", 1);
        m.counter_add("sim/cycles_total", report.cycles);
        m.counter_add("sim/completed_runs", u64::from(report.completed));
        m.counter_add("sim/violations", report.violations.len() as u64);
        m.gauge_set("sim/worst_wait", report.worst_wait as f64);
        for s in &report.task_stats {
            let name = self.graph.task(s.task).name();
            m.counter_add(&format!("sim/task/{name}/busy"), s.busy_cycles);
            m.counter_add(&format!("sim/task/{name}/stall"), s.stall_cycles);
        }
        for &(arbiter, grants) in &report.arbiter_grants {
            m.counter_add(&format!("sim/arb/{arbiter}/grants"), grants);
        }
        // Per-arbiter grant-wait distributions: the runtime analogue of
        // the paper's (N-1)(M+2) fairness bound, one observation per
        // completed wait episode.
        for &(_, arbiter, waited) in self.monitor.episodes() {
            m.observe(&format!("sim/arb/{arbiter}/grant_wait"), waited);
        }
        let stats = self.scheduler.stats();
        m.counter_add("kernel/executed_cycles", stats.executed_cycles);
        m.counter_add("kernel/skipped_cycles", stats.skipped_cycles);
        m.counter_add("kernel/skips", stats.skips);
        if let Some(w) = &self.wakes {
            for (i, &n) in w.tasks.iter().enumerate() {
                let name = self.graph.task(self.tasks[i].id()).name();
                m.counter_add(&format!("kernel/wakes/task/{name}"), n);
            }
            m.counter_add("kernel/wakes/arbiters", w.arbiters);
            m.counter_add("kernel/wakes/banks", w.banks);
            m.counter_add("kernel/wakes/routes", w.routes);
        }
        if let Some(fc) = &self.faults {
            let fr = fc.report();
            m.counter_add("fault/injected", fr.injected);
            m.counter_add("fault/detected", fr.detected);
            m.counter_add("fault/recovered", fr.recovered);
            m.counter_add("fault/unrecovered", fr.unrecovered);
            for t in &fr.traces {
                if let Some(l) = t.detection_latency() {
                    m.observe("fault/detection_latency", l);
                }
                if let (Some(d), Some(r)) = (t.detected_at, t.recovered_at) {
                    m.observe("fault/recovery_latency", r.saturating_sub(d));
                }
            }
        }
    }

    /// The kernel's cycle accounting so far: cycles stepped component by
    /// component versus cycles proven inert and skipped. The legacy
    /// kernel reports zero skips; the report itself stays
    /// kernel-independent.
    pub fn kernel_stats(&self) -> KernelStats {
        self.scheduler.stats()
    }

    /// The VCD waveform recorded so far (if tracing was enabled), at the
    /// paper's ~6 MHz design clock (167 ns per cycle).
    pub fn vcd(&self) -> Option<String> {
        self.tracer.as_ref().map(|t| t.vcd())
    }

    /// The injection/detection/recovery outcome of the fault plan.
    /// Empty (all zeroes, no traces) when the run injects no faults.
    pub fn fault_report(&self) -> FaultReport {
        self.faults
            .as_ref()
            .map(FaultController::report)
            .unwrap_or_default()
    }

    fn all_done(&self) -> bool {
        self.tasks.iter().all(|t| t.status() == TaskStatus::Done)
    }

    /// Bounds a proposed skip so the batched kernel never jumps over a
    /// cycle the legacy kernel would treat specially: a cycle inside,
    /// starting or just after a fault window (see
    /// `FaultController::horizon`), or the cycle the progress watchdog
    /// fires.
    fn clamp_skip(&self, skippable: u64) -> u64 {
        let mut s = skippable;
        if s == 0 {
            return 0;
        }
        if let Some(fc) = &self.faults {
            s = s.min(fc.horizon(self.cycle));
        }
        if self.watchdog.progress_bound != u64::MAX {
            s = s.min((self.last_progress + self.watchdog.progress_bound) - self.cycle);
        }
        s
    }

    /// Updates the progress watchdog's bookkeeping after executed or
    /// skipped cycles. Component state evolves uniformly across a
    /// skipped span (a sleeping task's busy count grows every cycle of
    /// it), so "signature changed over the span" implies the span's
    /// *last* cycle made progress — exactly what the legacy kernel
    /// would have recorded.
    fn note_progress(&mut self) {
        if self.watchdog.progress_bound == u64::MAX {
            return;
        }
        let sig = (
            self.tasks.iter().map(TaskComponent::busy_cycles).sum(),
            self.tasks
                .iter()
                .filter(|t| t.status() == TaskStatus::Done)
                .count(),
        );
        if sig != self.last_sig {
            self.last_sig = sig;
            self.last_progress = self.cycle - 1;
        }
    }

    /// Attributes freshly recorded violations (from index `from`
    /// onward) to planned faults — the detection accounting of the
    /// [`FaultReport`] — and applies the configured recovery actions.
    /// Returns whether any recovery action was taken.
    fn process_new_violations(&mut self, from: usize) -> bool {
        if self.faults.is_none() {
            return false;
        }
        let mut acted = false;
        let mut quarantine: Vec<(BankId, u64)> = Vec::new();
        let mut reroute: Vec<(ChannelId, u64)> = Vec::new();
        {
            let Self {
                monitor,
                faults,
                recovery,
                bank_fault_counts,
                channel_fault_counts,
                quarantined,
                rerouted,
                ..
            } = self;
            let fc = faults.as_mut().expect("checked above");
            for v in &monitor.violations()[from..] {
                let Some(cycle) = v.cycle() else { continue };
                match *v {
                    Violation::GrantTimeout { arbiter, .. }
                    | Violation::FairnessBreach { arbiter, .. }
                    | Violation::MultipleGrants { arbiter, .. } => {
                        fc.note_detection(FaultTarget::Arbiter(arbiter), cycle);
                        if recovery.scrub_requests && fc.scrub_requests(arbiter, cycle) > 0 {
                            acted = true;
                        }
                    }
                    Violation::NoProgress { .. } => {
                        fc.note_detection(FaultTarget::Any, cycle);
                        if recovery.scrub_requests && fc.scrub_all_requests(cycle) > 0 {
                            acted = true;
                        }
                    }
                    Violation::BankReadFault { bank, .. } => {
                        fc.note_detection(FaultTarget::Bank(bank), cycle);
                        if recovery.quarantine_banks {
                            let n = bank_fault_counts.entry(bank).or_insert(0);
                            *n += 1;
                            if *n >= recovery.bank_fault_threshold && quarantined.insert(bank) {
                                quarantine.push((bank, cycle));
                            }
                        }
                    }
                    Violation::ChannelFault { channel, .. } => {
                        fc.note_detection(FaultTarget::Channel(channel), cycle);
                        if recovery.reroute_channels {
                            let n = channel_fault_counts.entry(channel).or_insert(0);
                            *n += 1;
                            if *n >= recovery.channel_fault_threshold && rerouted.insert(channel) {
                                reroute.push((channel, cycle));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut structural = false;
        for (bank, cycle) in quarantine {
            let moved = self.quarantine_bank(bank, cycle);
            acted |= moved;
            structural |= moved;
        }
        for (channel, cycle) in reroute {
            self.reroute_channel(channel, cycle);
            acted = true;
            structural = true;
        }
        if structural {
            // Quarantine moved placements (and added a bank slot);
            // re-route grew the route set. The batched kernel's flat
            // tables mirror both, so rebuild them.
            self.rebuild_batched_tables();
        }
        acted
    }

    /// Rebuilds the batched kernel's flat lookup tables after a
    /// structural recovery (quarantine or re-route) mutated the binding,
    /// the bank set or the routing. No-op for the legacy kernel.
    fn rebuild_batched_tables(&mut self) {
        let Self {
            tasks,
            banks,
            routes,
            binding,
            segment_guards,
            channel_guards,
            route_of_channel,
            soa,
            ..
        } = self;
        if let Some(soa) = soa.as_mut() {
            soa.tables = DenseTables::new(
                tasks.len(),
                binding,
                segment_guards,
                channel_guards,
                route_of_channel,
                banks.ids(),
            );
            soa.arena.ensure(banks.len(), routes.len());
        }
    }

    /// Migrates a quarantined bank's role onto a spare board bank:
    /// storage contents, protocol clients and segment placements all
    /// move, so nothing touches the faulted bank again. Returns `false`
    /// when no spare with enough capacity exists — the fault then stays
    /// unrecovered in the report.
    fn quarantine_bank(&mut self, bank: BankId, cycle: u64) -> bool {
        let Some(old) = self.banks.get(bank) else {
            return false;
        };
        let needed = old.capacity();
        let Some(pos) = self
            .spare_banks
            .iter()
            .position(|&(_, words)| words >= needed)
        else {
            return false;
        };
        let (spare, words) = self.spare_banks.remove(pos);
        let mut fresh = BankComponent::new(BankModel::new(spare, words));
        let segments = self.binding.segments_in(bank);
        {
            let old = self.banks.get_mut(bank).expect("checked above");
            for &seg in &segments {
                let place = self.binding.placement(seg).expect("segment is in bank");
                for i in 0..self.graph.segment(seg).words() {
                    fresh.set_word(place.offset + i, old.word(place.offset + i));
                }
            }
            let clients = old.clients().to_vec();
            if !clients.is_empty() {
                fresh.set_clients(clients, self.select_line);
                old.set_clients(Vec::new(), self.select_line);
            }
        }
        for &seg in &segments {
            let offset = self
                .binding
                .placement(seg)
                .expect("segment is in bank")
                .offset;
            self.binding.place(seg, spare, offset);
        }
        self.banks.insert(spare, fresh);
        if let Some(fc) = self.faults.as_mut() {
            fc.recover_bank(bank, cycle);
        }
        true
    }

    /// Moves a faulted channel onto a fresh private route, seeding the
    /// new route's register with the old one's latched word so a
    /// not-yet-consumed transfer survives the migration. Bit-flip
    /// faults stay keyed to the route the channel was *built* on, so
    /// the migrated channel escapes them.
    fn reroute_channel(&mut self, channel: ChannelId, cycle: u64) {
        let idx = self.routes.len();
        let mut fresh = RouteComponent::new(
            RouteState::new(vec![channel], RegisterPlacement::Receiver),
            false,
        );
        if let Some(&old) = self.route_of_channel.get(&channel) {
            if let Some(v) = self.routes[old].read(channel) {
                fresh.preload(channel, v);
            }
        }
        self.routes.push(fresh);
        self.route_of_channel.insert(channel, idx);
        if let Some(fc) = self.faults.as_mut() {
            fc.recover_channel(channel, cycle);
        }
    }

    /// Executes one cycle through the shared phase order, component by
    /// component: the legacy kernel runs exactly this code for every
    /// cycle.
    fn step_cycle(&mut self) {
        let cycle = self.cycle;
        // 1. Release newly runnable tasks.
        for i in 0..self.tasks.len() {
            if self.tasks[i].status() == TaskStatus::NotStarted {
                let id = self.tasks[i].id();
                let ready = self
                    .graph
                    .predecessors(id)
                    .iter()
                    .all(|p| self.tasks[p.index()].status() == TaskStatus::Done);
                if ready {
                    self.tasks[i].release(cycle);
                }
            }
        }
        // 2. Arbiters sample the request lines. Stuck-request faults
        // perturb the sampled word (what the arbiter *and* steadiness
        // see); stuck-grant and glitch faults perturb the issued grant
        // on the wire (what the tasks, tracer and multi-grant check
        // see), leaving the arbiter's own bookkeeping on the raw grant.
        let mut grants: BTreeMap<ArbiterId, u64> = BTreeMap::new();
        let mut request_words: BTreeMap<ArbiterId, u64> = BTreeMap::new();
        {
            let Self {
                tasks,
                arbiters,
                monitor,
                faults,
                ..
            } = self;
            for a in arbiters.iter_mut() {
                let mut word = a.compute_word(tasks);
                if let Some(fc) = faults.as_mut() {
                    word = fc.perturb_requests(a.id(), cycle, word, |t| a.port_of(t));
                }
                let mut grant = a.step_with_word(word);
                if let Some(fc) = faults.as_mut() {
                    grant = fc.perturb_grant(a.id(), cycle, grant);
                }
                if grant.count_ones() > 1 {
                    monitor.push(Violation::MultipleGrants {
                        cycle,
                        arbiter: a.id(),
                        grants: grant,
                    });
                }
                request_words.insert(a.id(), word);
                grants.insert(a.id(), grant);
            }
        }
        if let Some(tracer) = &mut self.tracer {
            tracer.sample_cycle(cycle, &self.arbiters, &request_words, &grants);
        }
        // 3. Tasks execute.
        let mut bank_accesses: BTreeMap<BankId, Vec<BankAccess>> = BTreeMap::new();
        let mut pending_reads: Vec<(BankId, TaskId, VarId, u64)> = Vec::new();
        let mut route_sends: BTreeMap<usize, Vec<RouteSend>> = BTreeMap::new();
        {
            let retry_reads = self.recovery.retry_reads;
            let Self {
                tasks,
                arbiters,
                routes,
                route_of_channel,
                binding,
                segment_guards,
                channel_guards,
                monitor,
                faults,
                wakes,
                ..
            } = self;
            let mut ctx = ExecCtx {
                cycle,
                grants: &grants,
                arbiters: arbiters.as_slice(),
                routes: routes.as_slice(),
                route_of_channel,
                binding,
                segment_guards,
                channel_guards,
                monitor,
                bank_accesses: &mut bank_accesses,
                pending_reads: &mut pending_reads,
                route_sends: &mut route_sends,
                faults,
                retry_reads,
            };
            for (i, t) in tasks.iter_mut().enumerate() {
                if t.status() == TaskStatus::Running {
                    t.step_cycle(&mut ctx);
                    if let Some(w) = wakes.as_mut() {
                        w.tasks[i] += 1;
                    }
                }
            }
        }
        // 4. Banks resolve.
        {
            let Self {
                tasks,
                banks,
                monitor,
                ..
            } = self;
            for (bank, accesses) in &bank_accesses {
                // Accesses come from placements validated in try_build,
                // so the bank is modelled; degrade gracefully otherwise.
                let Some(b) = banks.get_mut(*bank) else {
                    continue;
                };
                match b.resolve(accesses) {
                    BankOutcome::Conflict { tasks: offenders } => {
                        monitor.push(Violation::BankConflict {
                            cycle,
                            bank: *bank,
                            tasks: offenders,
                        });
                    }
                    BankOutcome::Ok {
                        task,
                        read_value: Some(v),
                    } => {
                        if let Some(&(_, _, dst, mask)) = pending_reads
                            .iter()
                            .find(|(bk, t, _, _)| bk == bank && *t == task)
                        {
                            tasks[task.index()].set_var(dst, v ^ mask);
                        }
                    }
                    _ => {}
                }
            }
            // 4b. Fig. 4 select-line discipline on every shared bank.
            let select_line = self.select_line;
            banks.for_each_ordered_mut(|_slot, bank, b| {
                b.check_select(cycle, bank_accesses.get(&bank), select_line, monitor);
            });
        }
        // 5. Routes resolve, after any live bit-flip faults corrupt
        // words in flight (the flip is on the wire, before the latch).
        {
            let Self {
                routes,
                monitor,
                faults,
                ..
            } = self;
            if let Some(fc) = faults.as_mut() {
                for (route, sends) in route_sends.iter_mut() {
                    for s in sends.iter_mut() {
                        if let Some(mask) = fc.channel_flip(s.channel, *route, cycle) {
                            s.value ^= mask;
                            monitor.push(Violation::ChannelFault {
                                cycle,
                                channel: s.channel,
                                bit: mask.trailing_zeros(),
                            });
                        }
                    }
                }
            }
            for (route, sends) in &route_sends {
                let outcome = routes[*route].resolve(sends);
                if let RouteOutcome::Conflict { tasks: offenders } = outcome {
                    if routes[*route].shared() {
                        monitor.push(Violation::RouteConflict {
                            cycle,
                            route: *route,
                            tasks: offenders,
                        });
                    }
                }
            }
        }
        if let Some(w) = self.wakes.as_mut() {
            w.arbiters += self.arbiters.len() as u64;
            w.banks += bank_accesses.len() as u64;
            w.routes += route_sends.len() as u64;
        }
        self.cycle += 1;
        self.scheduler.record_executed();
    }

    /// Executes one cycle through the batched structure-of-arrays path:
    /// the same five phases as [`step_cycle`](Self::step_cycle), with
    /// request words read from the incremental matrix, FSMs stepped in
    /// the word-level lanes, and traffic carried in the reused arena.
    fn step_batched(&mut self) {
        let cycle = self.cycle;
        let retry_reads = self.recovery.retry_reads;
        let select_line = self.select_line;
        let Self {
            graph,
            tasks,
            banks,
            routes,
            arbiters,
            monitor,
            tracer,
            faults,
            wakes,
            soa,
            ..
        } = self;
        let soa = soa.as_mut().expect("batched kernel state");
        let BatchedState {
            matrix,
            lanes,
            arena,
            tables,
            wake_list,
            deferred_waits,
        } = soa;
        // 1. Release newly runnable tasks. Releasing *inside* the
        // ascending pass reproduces the legacy kernel's index-order
        // scan exactly: an empty-program predecessor that completes on
        // release lets a later-indexed successor start this same cycle.
        wake_list.drain_ready(|t| {
            let id = tasks[t as usize].id();
            let ready = graph
                .predecessors(id)
                .iter()
                .all(|p| tasks[p.index()].status() == TaskStatus::Done);
            if ready {
                tasks[t as usize].release(cycle);
            }
            ready
        });
        wake_list.commit_released(|t| tasks[t as usize].status() == TaskStatus::Running);
        // 2. Arbiters sample the request lines — straight out of the
        // matrix, no reassembly. Fault perturbation and the multi-grant
        // check are identical to the legacy path.
        arena.begin_cycle();
        for (i, a) in arbiters.iter_mut().enumerate() {
            let mut word = matrix.word(i);
            if let Some(fc) = faults.as_mut() {
                word = fc.perturb_requests(a.id(), cycle, word, |t| a.port_of(t));
            }
            let mut grant = match lanes.as_mut() {
                Some(l) => {
                    let g = l.step(i, word);
                    a.note_batch_step(word, g);
                    g
                }
                None => a.step_with_word(word),
            };
            if let Some(fc) = faults.as_mut() {
                grant = fc.perturb_grant(a.id(), cycle, grant);
            }
            if grant.count_ones() > 1 {
                monitor.push(Violation::MultipleGrants {
                    cycle,
                    arbiter: a.id(),
                    grants: grant,
                });
            }
            arena.request_words[i] = word;
            arena.grants[i] = grant;
        }
        if let Some(tracer) = tracer.as_mut() {
            tracer.sample_cycle_words(cycle, arbiters, &arena.request_words, &arena.grants);
        }
        // 3. Tasks execute — only the ones in the running list, through
        // the SoA environment. With faults absent and every per-cycle
        // wait watchdog disarmed, a task parked in a plain grant or
        // data wait is not stepped at all: its only effects that cycle
        // (one stall cycle, one starvation tick, one wake) go into
        // `deferred_waits` and are bulk-applied the moment it would do
        // anything else. The totals are order-independent sums, no
        // crossing can fire while disarmed, and a parked task drives
        // no request edges — so reports, VCD and memory stay
        // byte-identical to the legacy kernel.
        {
            let defer_ok = faults.is_none() && !monitor.wait_bounds_armed();
            let mut env = BatchedEnv {
                cycle,
                arbiters: arbiters.as_slice(),
                routes: routes.as_slice(),
                monitor: &mut *monitor,
                arena: &mut *arena,
                matrix: &mut *matrix,
                tables,
                faults: &mut *faults,
                retry_reads,
            };
            for &ti in wake_list.running() {
                let i = ti as usize;
                if defer_ok {
                    let t = &tasks[i];
                    let parked = if let Some(a) = t.plain_grant_wait() {
                        env.matrix
                            .port_of(a.index(), t.id())
                            .is_some_and(|p| env.arena.grants[a.index()] >> p & 1 == 0)
                    } else if let Some(ch) = t.awaiting_data() {
                        env.tables
                            .route_of(ch)
                            .is_none_or(|r| env.routes[r as usize].read(ch).is_none())
                    } else {
                        false
                    };
                    if parked {
                        deferred_waits[i] += 1;
                        continue;
                    }
                }
                let n = deferred_waits[i];
                if n != 0 {
                    deferred_waits[i] = 0;
                    tasks[i].note_stalled(n);
                    if let Some(a) = tasks[i].plain_grant_wait() {
                        let vs = env.monitor.tick_waiting_n(tasks[i].id(), a, n, cycle - n);
                        debug_assert!(vs.is_empty(), "deferred wait crossed an armed bound");
                    }
                    if let Some(w) = wakes.as_mut() {
                        w.tasks[i] += n;
                    }
                }
                tasks[i].step_cycle(&mut env);
                if let Some(w) = wakes.as_mut() {
                    w.tasks[i] += 1;
                }
            }
        }
        // 4. Banks resolve, in id order (the legacy kernel's map
        // order — quarantine can append a spare whose id is out of slot
        // order).
        arena.sort_touched_banks(banks.ids());
        for &slot in arena.touched_banks() {
            let bank = banks.ids()[slot as usize];
            let b = banks.slot_mut(slot);
            match b.resolve(arena.accesses(slot)) {
                BankOutcome::Conflict { tasks: offenders } => {
                    monitor.push(Violation::BankConflict {
                        cycle,
                        bank,
                        tasks: offenders,
                    });
                }
                BankOutcome::Ok {
                    task,
                    read_value: Some(v),
                } => {
                    if let Some(&(_, _, dst, mask)) = arena
                        .pending_reads
                        .iter()
                        .find(|(bk, t, _, _)| *bk == bank && *t == task)
                    {
                        tasks[task.index()].set_var(dst, v ^ mask);
                    }
                }
                _ => {}
            }
        }
        // 4b. Fig. 4 select-line discipline on every shared bank.
        banks.for_each_ordered_mut(|slot, _bank, b| {
            b.check_select(cycle, arena.accesses_of(slot), select_line, monitor);
        });
        // 5. Routes resolve, after any live bit-flip faults corrupt
        // words in flight.
        arena.sort_touched_routes();
        if let Some(fc) = faults.as_mut() {
            arena.for_each_route_mut(|r, sends| {
                for s in sends.iter_mut() {
                    if let Some(mask) = fc.channel_flip(s.channel, r as usize, cycle) {
                        s.value ^= mask;
                        monitor.push(Violation::ChannelFault {
                            cycle,
                            channel: s.channel,
                            bit: mask.trailing_zeros(),
                        });
                    }
                }
            });
        }
        arena.for_each_route(|r, sends| {
            let outcome = routes[r as usize].resolve(sends);
            if let RouteOutcome::Conflict { tasks: offenders } = outcome {
                if routes[r as usize].shared() {
                    monitor.push(Violation::RouteConflict {
                        cycle,
                        route: r as usize,
                        tasks: offenders,
                    });
                }
            }
        });
        if let Some(w) = wakes.as_mut() {
            w.arbiters += arbiters.len() as u64;
            w.banks += arena.touched_banks().len() as u64;
            w.routes += arena.touched_routes().len() as u64;
        }
        // Retire tasks that completed this cycle.
        wake_list.retire(|t| tasks[t as usize].status() == TaskStatus::Running);
        self.cycle += 1;
        self.scheduler.record_executed();
    }

    /// The batched kernel's post-cycle wake refresh: re-registers every
    /// component's wake condition with the scheduler, returning as soon
    /// as anything must run next cycle. It asks the dense running and
    /// pending lists and the incremental request matrix rather than
    /// scanning every component. The skip decision (quiescent or not,
    /// earliest timer) is order-independent, so visiting running tasks
    /// before pending ones needs no interleaved index scan.
    fn refresh_batched(&mut self) {
        let now = self.cycle; // next cycle to execute
        self.scheduler.begin_refresh();
        let Self {
            graph,
            tasks,
            banks,
            routes,
            arbiters,
            scheduler,
            soa,
            ..
        } = self;
        let soa = soa.as_ref().expect("batched kernel state");
        for &ti in soa.wake_list.running() {
            let i = ti as usize;
            let t = &tasks[i];
            match t.wake(now) {
                Wake::Active => {
                    scheduler.mark_active(CompId::Task(i));
                    return;
                }
                Wake::Timer(c) => scheduler.wake_at(c, CompId::Task(i)),
                Wake::Idle => {
                    // A blocked Recv wakes when data lands in its route
                    // register. (A blocked AwaitGrant is covered by the
                    // arbiter steadiness check below.)
                    if let Some(ch) = t.awaiting_data() {
                        let data_ready = soa
                            .tables
                            .route_of(ch)
                            .and_then(|r| routes[r as usize].read(ch))
                            .is_some();
                        if data_ready {
                            scheduler.mark_active(CompId::Task(i));
                            return;
                        }
                    }
                }
            }
        }
        for &ti in soa.wake_list.pending() {
            let i = ti as usize;
            let ready = graph
                .predecessors(tasks[i].id())
                .iter()
                .all(|p| tasks[p.index()].status() == TaskStatus::Done);
            if ready {
                scheduler.mark_active(CompId::Task(i));
                return;
            }
        }
        // Arbiter steadiness against the post-exec matrix word — the
        // word it will sample next cycle. In lanes mode the boxed
        // policy is stale, so the fixed-point promise comes from the
        // lane FSM itself.
        for (i, a) in arbiters.iter().enumerate() {
            let word = soa.matrix.word(i);
            debug_assert_eq!(word, a.compute_word(tasks), "request matrix out of sync");
            let steady = match &soa.lanes {
                Some(l) => {
                    word == a.last_word()
                        && l.next_grant(i, word) == Some(a.last_grant())
                        && a.last_grant().count_ones() <= 1
                }
                None => a.steady_for(word),
            };
            if !steady {
                scheduler.mark_active(CompId::Arbiter(i));
                return;
            }
        }
        for (i, b) in banks.values_ordered().enumerate() {
            if b.wake(now) == Wake::Active {
                scheduler.mark_active(CompId::Bank(i));
                return;
            }
        }
    }

    /// Bulk-applies `cycles` proven-inert cycles: per-component skip
    /// accounting plus the starvation ticks blocked tasks would have
    /// accrued, then jumps the clock. Watchdog crossings inside the
    /// span are merged into executed-cycle order (cycle, then task,
    /// then timeout-before-fairness) so the batched kernel logs the
    /// violation sequence the legacy kernel does.
    fn skip_cycles(&mut self, cycles: u64) {
        let from = self.monitor.violations().len();
        let start = self.cycle;
        {
            let Self {
                tasks,
                arbiters,
                monitor,
                scheduler,
                ..
            } = self;
            let mut crossings: Vec<(u64, usize, u8, Violation)> = Vec::new();
            for (i, t) in tasks.iter_mut().enumerate() {
                if let Some(arb) = t.blocked_on_grant() {
                    for v in monitor.tick_waiting_n(t.id(), arb, cycles, start) {
                        let rank = u8::from(matches!(v, Violation::FairnessBreach { .. }));
                        crossings.push((v.cycle().unwrap_or(start), i, rank, v));
                    }
                }
                t.skip(cycles);
            }
            crossings.sort_by_key(|&(c, i, r, _)| (c, i, r));
            for (_, _, _, v) in crossings {
                monitor.push(v);
            }
            for a in arbiters.iter_mut() {
                a.skip(cycles);
            }
            // Banks, routes and the tracer accrue nothing with time
            // while the system is quiescent.
            scheduler.record_skip(cycles);
        }
        self.cycle += cycles;
        if self.faults.is_some() && self.monitor.violations().len() > from {
            self.process_new_violations(from);
        }
        self.note_progress();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_core::memmap::bind_segments;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::program::{Expr, Program};

    fn one_task_system(program: Program) -> (System, TaskId) {
        let mut b = TaskGraphBuilder::new("unit");
        let seg = b.segment("M", 32, 16);
        let _ = seg;
        let t = b.task("T", program);
        let graph = b.finish().unwrap();
        let board = rcarb_board::presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let sys = SystemBuilder::unarbitrated(&graph, &binding, &ChannelMergePlan::default())
            .try_build(&board)
            .unwrap();
        (sys, t)
    }

    #[test]
    fn empty_program_finishes_on_cycle_zero() {
        let (mut sys, t) = one_task_system(Program::empty());
        let report = sys.run(10);
        assert!(report.clean());
        let stats = report.task(t);
        assert_eq!(stats.started_at, Some(0));
        assert_eq!(stats.finished_at, Some(0));
        assert_eq!(stats.busy_cycles, 0);
    }

    #[test]
    fn memory_read_delivers_the_written_value() {
        let seg = rcarb_taskgraph::id::SegmentId::new(0);
        let (mut sys, _) = one_task_system(Program::build(|p| {
            p.mem_write(seg, Expr::lit(5), Expr::lit(1234));
            let v = p.mem_read(seg, Expr::lit(5));
            p.mem_write(seg, Expr::lit(6), Expr::add(Expr::var(v), Expr::lit(1)));
        }));
        let report = sys.run(100);
        assert!(report.clean());
        assert_eq!(sys.try_read_segment(seg, 7).unwrap()[5], 1234);
        assert_eq!(sys.try_read_segment(seg, 7).unwrap()[6], 1235);
    }

    #[test]
    fn successors_start_the_cycle_after_predecessors_finish() {
        let mut b = TaskGraphBuilder::new("deps");
        let first = b.task("first", Program::build(|p| p.compute(5)));
        let second = b.task("second", Program::build(|p| p.compute(1)));
        b.control_dep(first, second);
        let graph = b.finish().unwrap();
        let board = rcarb_board::presets::duo_small();
        let binding = MemoryBinding::default();
        let mut sys = SystemBuilder::unarbitrated(&graph, &binding, &ChannelMergePlan::default())
            .try_build(&board)
            .unwrap();
        let report = sys.run(100);
        assert!(report.clean());
        let f = report.task(first);
        let s = report.task(second);
        // `first` runs cycles 0..4, finishing at 4 (its 5th busy cycle);
        // `second` becomes runnable the next cycle.
        assert_eq!(f.finished_at, Some(4));
        assert_eq!(s.started_at, Some(5));
        assert_eq!(s.finished_at, Some(5));
    }

    #[test]
    fn timeout_reports_incomplete() {
        let (mut sys, t) = one_task_system(Program::build(|p| p.compute(1000)));
        let report = sys.run(10);
        assert!(!report.completed);
        assert_eq!(report.cycles, 10);
        assert_eq!(report.task(t).finished_at, None);
    }

    #[test]
    fn batched_kernel_skips_through_long_computes() {
        let (mut sys, t) = one_task_system(Program::build(|p| p.compute(1000)));
        let report = sys.run(10_000);
        assert!(report.clean());
        assert_eq!(report.task(t).busy_cycles, 1000);
        assert_eq!(report.task(t).finished_at, Some(999));
        let stats = sys.kernel_stats();
        // Cycles 1..=998 are pure countdown; only the start and finish
        // of the compute (and release) execute.
        assert_eq!(stats.total_cycles(), 1000);
        assert!(
            stats.skipped_cycles >= 990,
            "expected a near-total skip, got {stats:?}"
        );
    }

    #[test]
    fn legacy_kernel_executes_every_cycle() {
        let mut b = TaskGraphBuilder::new("legacy");
        let t = b.task("T", Program::build(|p| p.compute(50)));
        let graph = b.finish().unwrap();
        let board = rcarb_board::presets::duo_small();
        let mut sys = SystemBuilder::unarbitrated(
            &graph,
            &MemoryBinding::default(),
            &ChannelMergePlan::default(),
        )
        .with_config(SimConfig::new().with_kernel(KernelKind::Legacy))
        .try_build(&board)
        .unwrap();
        let report = sys.run(1000);
        assert!(report.clean());
        assert_eq!(report.task(t).finished_at, Some(49));
        let stats = sys.kernel_stats();
        assert_eq!(stats.skipped_cycles, 0);
        assert_eq!(stats.executed_cycles, 50);
    }

    #[test]
    fn kernels_agree_on_a_dependent_design() {
        let build = |kernel: KernelKind| {
            let mut b = TaskGraphBuilder::new("pair");
            let first = b.task("first", Program::build(|p| p.compute(40)));
            let second = b.task("second", Program::build(|p| p.compute(7)));
            b.control_dep(first, second);
            let graph = b.finish().unwrap();
            let board = rcarb_board::presets::duo_small();
            let mut sys = SystemBuilder::unarbitrated(
                &graph,
                &MemoryBinding::default(),
                &ChannelMergePlan::default(),
            )
            .with_config(SimConfig::new().with_kernel(kernel))
            .try_build(&board)
            .unwrap();
            sys.run(10_000)
        };
        assert_eq!(build(KernelKind::BatchedSoa), build(KernelKind::Legacy));
    }

    #[test]
    fn batched_kernel_matches_legacy_and_pins_its_skips() {
        let build = |kernel: KernelKind| {
            let mut b = TaskGraphBuilder::new("trio");
            let first = b.task("first", Program::build(|p| p.compute(40)));
            let second = b.task("second", Program::build(|p| p.compute(7)));
            let third = b.task("third", Program::empty());
            b.control_dep(first, second);
            b.control_dep(third, second);
            let graph = b.finish().unwrap();
            let board = rcarb_board::presets::duo_small();
            let mut sys = SystemBuilder::unarbitrated(
                &graph,
                &MemoryBinding::default(),
                &ChannelMergePlan::default(),
            )
            .with_config(SimConfig::new().with_kernel(kernel))
            .try_build(&board)
            .unwrap();
            (sys.run(10_000), sys.kernel_stats())
        };
        let (batched_report, batched_stats) = build(KernelKind::BatchedSoa);
        let (legacy_report, legacy_stats) = build(KernelKind::Legacy);
        assert_eq!(batched_report, legacy_report);
        assert_eq!(legacy_stats.skipped_cycles, 0);
        // The skip decisions themselves are pinned, not merely the
        // report: both computes jump, the releases and finishes execute.
        assert_eq!(
            batched_stats,
            KernelStats {
                executed_cycles: 4,
                skipped_cycles: 43,
                skips: 2,
            }
        );
    }

    #[test]
    fn blocked_receiver_wakes_when_data_arrives() {
        let run = |kernel: KernelKind| {
            let mut b = TaskGraphBuilder::new("chan");
            let seg = b.segment("out", 4, 16);
            let producer = b.task(
                "producer",
                Program::build(|p| {
                    p.compute(60);
                    p.send(ChannelId::new(0), Expr::lit(77));
                }),
            );
            let consumer = b.task(
                "consumer",
                Program::build(|p| {
                    let v = p.recv(ChannelId::new(0));
                    p.mem_write(seg, Expr::lit(0), Expr::var(v));
                }),
            );
            let _ = b.channel("c", 16, producer, consumer);
            let graph = b.finish().unwrap();
            let board = rcarb_board::presets::duo_small();
            let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
            let mut sys =
                SystemBuilder::unarbitrated(&graph, &binding, &ChannelMergePlan::default())
                    .with_config(SimConfig::new().with_kernel(kernel))
                    .try_build(&board)
                    .unwrap();
            let report = sys.run(10_000);
            assert!(report.clean());
            assert_eq!(sys.try_read_segment(seg, 1).unwrap()[0], 77);
            (report, sys.kernel_stats())
        };
        let (batched_report, batched_stats) = run(KernelKind::BatchedSoa);
        let (legacy_report, _) = run(KernelKind::Legacy);
        assert_eq!(batched_report, legacy_report);
        // The consumer blocks on the empty channel while the producer
        // computes; those cycles must be skipped, not executed.
        assert!(
            batched_stats.skipped_cycles > 40,
            "expected the consumer's wait to be skipped, got {batched_stats:?}"
        );
    }

    #[test]
    fn obs_session_collects_run_metrics_without_changing_the_report() {
        let build = |obs: Option<Obs>| {
            let mut b = TaskGraphBuilder::new("obs");
            b.task("T", Program::build(|p| p.compute(25)));
            let graph = b.finish().unwrap();
            let board = rcarb_board::presets::duo_small();
            let mut builder = SystemBuilder::unarbitrated(
                &graph,
                &MemoryBinding::default(),
                &ChannelMergePlan::default(),
            );
            if let Some(o) = obs {
                builder = builder.with_obs(o);
            }
            let mut sys = builder.try_build(&board).unwrap();
            sys.run(1000)
        };
        let obs = Obs::new();
        let observed = build(Some(obs.clone()));
        let bare = build(None);
        assert_eq!(observed, bare, "instrumentation must not perturb the run");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("sim/runs"), 1);
        assert_eq!(snap.counter("sim/cycles_total"), bare.cycles);
        assert_eq!(snap.counter("sim/completed_runs"), 1);
        assert_eq!(snap.counter("sim/task/T/busy"), 25);
        assert_eq!(
            snap.counter("kernel/executed_cycles") + snap.counter("kernel/skipped_cycles"),
            bare.cycles,
            "kernel accounting must cover every simulated cycle"
        );
        assert!(snap.counter("kernel/wakes/task/T") >= 1);
    }

    #[test]
    fn try_load_segment_reports_instead_of_panicking() {
        let mut b = TaskGraphBuilder::new("unbound");
        let seg = b.segment("M", 8, 16);
        b.task("T", Program::empty());
        let graph = b.finish().unwrap();
        let board = rcarb_board::presets::duo_small();
        let mut sys = SystemBuilder::unarbitrated(
            &graph,
            &MemoryBinding::default(),
            &ChannelMergePlan::default(),
        )
        .try_build(&board)
        .unwrap();
        let err = sys
            .try_load_segment(seg, &[1, 2, 3])
            .expect_err("unbound segment load must error");
        assert!(matches!(
            err,
            rcarb_core::Error::UnboundSegment { segment, .. } if segment == seg
        ));
        assert!(sys.try_read_segment(seg, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "overruns segment")]
    fn oversized_load_panics() {
        // A host-side programming error (too much data), distinct from
        // the malformed-plan conditions `try_load_segment` diagnoses.
        let seg = rcarb_taskgraph::id::SegmentId::new(0);
        let (mut sys, _) = one_task_system(Program::build(|p| {
            p.mem_write(seg, Expr::lit(0), Expr::lit(1));
        }));
        let _ = sys.try_load_segment(seg, &vec![0; 33]); // segment is 32 words
    }

    #[test]
    fn conditional_takes_the_right_branch() {
        let seg = rcarb_taskgraph::id::SegmentId::new(0);
        let (mut sys, _) = one_task_system(Program::build(|p| {
            let c = p.let_(Expr::lit(0));
            p.if_else(
                Expr::var(c),
                |p| p.mem_write(seg, Expr::lit(0), Expr::lit(111)),
                |p| p.mem_write(seg, Expr::lit(0), Expr::lit(222)),
            );
        }));
        let report = sys.run(100);
        assert!(report.clean());
        assert_eq!(sys.try_read_segment(seg, 1).unwrap()[0], 222);
    }

    #[test]
    fn nested_loops_execute_the_product_of_trips() {
        let seg = rcarb_taskgraph::id::SegmentId::new(0);
        let (mut sys, _) = one_task_system(Program::build(|p| {
            let acc = p.let_(Expr::lit(0));
            p.repeat(3, |p| {
                p.repeat(4, |p| {
                    p.set(acc, Expr::add(Expr::var(acc), Expr::lit(1)));
                });
            });
            p.mem_write(seg, Expr::lit(0), Expr::var(acc));
        }));
        let report = sys.run(1000);
        assert!(report.clean());
        assert_eq!(sys.try_read_segment(seg, 1).unwrap()[0], 12);
    }

    #[test]
    fn try_build_reports_unbound_segments() {
        let seg = rcarb_taskgraph::id::SegmentId::new(0);
        let mut b = TaskGraphBuilder::new("unbound");
        let _ = b.segment("M", 32, 16);
        b.task(
            "reader",
            Program::build(|p| {
                let _ = p.mem_read(seg, Expr::lit(0));
            }),
        );
        let graph = b.finish().unwrap();
        let board = rcarb_board::presets::duo_small();
        // Deliberately empty binding: the accessed segment has no bank.
        let err = SystemBuilder::unarbitrated(
            &graph,
            &MemoryBinding::default(),
            &ChannelMergePlan::default(),
        )
        .try_build(&board)
        .expect_err("unbound segment must be rejected");
        assert!(matches!(
            err,
            rcarb_core::Error::UnboundSegment { segment, ref task }
                if segment == seg && task == "reader"
        ));
        assert!(err.to_string().contains("is not bound to a bank"));
    }

    #[test]
    fn try_build_reports_placements_into_missing_banks() {
        let seg = rcarb_taskgraph::id::SegmentId::new(0);
        let mut b = TaskGraphBuilder::new("offboard");
        let _ = b.segment("M", 8, 16);
        b.task(
            "reader",
            Program::build(|p| {
                let _ = p.mem_read(seg, Expr::lit(0));
            }),
        );
        let graph = b.finish().unwrap();
        let board = rcarb_board::presets::duo_small();
        // A hand-built binding into a bank the board does not have: the
        // legacy engine panicked inside `build`; now it is a diagnosis.
        let mut binding = MemoryBinding::default();
        binding.place(seg, BankId::new(99), 0);
        let err = SystemBuilder::unarbitrated(&graph, &binding, &ChannelMergePlan::default())
            .try_build(&board)
            .expect_err("off-board placement must be rejected");
        assert!(matches!(
            err,
            rcarb_core::Error::UnknownBank { bank, segment }
                if bank == BankId::new(99) && segment == seg
        ));
    }

    #[test]
    fn try_build_reports_uninstantiated_arbiters() {
        use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
        // Two concurrent tasks sharing a bank force an arbiter in; then
        // drop the instance from the plan so the protocol ops dangle.
        let mut b = TaskGraphBuilder::new("dangling");
        let seg = b.segment("S", 16, 16);
        b.task(
            "a",
            Program::build(|p| {
                let _ = p.mem_read(seg, Expr::lit(0));
            }),
        );
        b.task(
            "b",
            Program::build(|p| {
                let _ = p.mem_read(seg, Expr::lit(1));
            }),
        );
        let graph = b.finish().unwrap();
        let board = rcarb_board::presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let merges = ChannelMergePlan::default();
        let mut plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
        assert!(
            !plan.arbiters.is_empty(),
            "the shared bank must have forced an arbiter"
        );
        plan.arbiters.clear();
        let err = SystemBuilder::from_plan(&plan, &binding, &merges)
            .try_build(&board)
            .expect_err("dangling protocol ops must be rejected");
        assert!(matches!(err, rcarb_core::Error::UnknownArbiter { .. }));
        assert!(err.to_string().contains("never instantiated"));
    }

    #[test]
    fn fault_plans_are_validated_at_build() {
        let mut b = TaskGraphBuilder::new("badplan");
        b.task("t", Program::build(|p| p.compute(1)));
        let graph = b.finish().unwrap();
        let board = rcarb_board::presets::duo_small();
        let plan = FaultPlan::seeded(1).with_task_hang(TaskId::new(9), fault::FaultWindow::at(0));
        let err = SystemBuilder::unarbitrated(
            &graph,
            &MemoryBinding::default(),
            &ChannelMergePlan::default(),
        )
        .with_faults(plan)
        .try_build(&board)
        .expect_err("a plan naming an unknown task must be rejected");
        assert!(matches!(err, rcarb_core::Error::FaultPlan { .. }));
        assert!(err.to_string().contains("invalid fault plan"));
    }
}
