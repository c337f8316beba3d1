//! The task component: one task controller's datapath, program counter
//! and request lines.
//!
//! This is the former `TaskExec` of the monolithic engine, promoted to
//! a [`Component`]: it still executes exactly one *costed* instruction
//! per cycle (free loop bookkeeping around it), but it now also tracks
//! *why* it stopped each cycle — ready, mid-compute, awaiting a grant,
//! awaiting channel data — which is what lets the batched kernel prove
//! it inert and skip cycles without executing them.

use super::arbiter::ArbiterComponent;
use super::monitor::MonitorComponent;
use super::route::RouteComponent;
use super::{Component, Wake};
use crate::channel::RouteSend;
use crate::compile::{FlatProgram, Instr};
use crate::fault::FaultController;
use crate::memory::BankAccess;
use crate::monitor::Violation;
use rcarb_board::memory::BankId;
use rcarb_core::memmap::MemoryBinding;
use rcarb_taskgraph::id::{ArbiterId, ChannelId, SegmentId, TaskId, VarId};
use std::collections::BTreeMap;

/// A task's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Waiting for control-dependency predecessors to finish.
    NotStarted,
    /// Released and executing its program.
    Running,
    /// Program complete.
    Done,
}

/// Why a running task stopped executing in its last cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Stopped at its per-cycle instruction budget: must run next cycle.
    Ready,
    /// Mid multi-cycle compute: sleeps until the countdown reaches one.
    Sleeping,
    /// Blocked in `AwaitGrant` on this arbiter.
    AwaitingGrant(ArbiterId),
    /// Blocked in `Recv` on this empty channel.
    AwaitingData(ChannelId),
}

/// The environment a task borrows for one execution cycle.
///
/// Tasks read this cycle's grant words and route registers, and collect
/// their memory and channel traffic for the bank/route resolution
/// phases. [`TaskComponent::step_cycle`] is generic over this trait and
/// monomorphizes once per environment — the dispatch [`ExecCtx`] (fresh
/// per-cycle maps, the legacy kernel) and the batched kernel's
/// arena-backed SoA environment — so every kernel executes the *same*
/// instruction semantics by construction.
pub trait CycleEnv {
    /// The executing cycle.
    fn cycle(&self) -> u64;

    /// Whether `task` holds `arbiter`'s grant this cycle.
    fn task_granted(&self, arbiter: ArbiterId, task: TaskId) -> bool;

    /// The violation/starvation monitor.
    fn monitor(&mut self) -> &mut MonitorComponent;

    /// The bank and in-bank base offset `segment` is placed at, if
    /// bound.
    fn placement(&self, segment: SegmentId) -> Option<(BankId, u32)>;

    /// The arbiter guarding `task`'s accesses to `segment`, if any.
    fn segment_guard(&self, task: TaskId, segment: SegmentId) -> Option<ArbiterId>;

    /// The arbiter guarding `task`'s sends on `channel`, if any.
    fn channel_guard(&self, task: TaskId, channel: ChannelId) -> Option<ArbiterId>;

    /// Reads the route register visible to `channel`'s receiver.
    fn route_read(&self, channel: ChannelId) -> Option<u64>;

    /// Collects one bank access for the bank-resolution phase.
    fn push_access(&mut self, bank: BankId, access: BankAccess);

    /// Collects one read awaiting its bank's resolution: `(bank, task,
    /// dst var, corruption mask)`. The mask is XOR'd into the delivered
    /// word and is zero on the fault-free path.
    fn push_pending_read(&mut self, bank: BankId, task: TaskId, dst: VarId, mask: u64);

    /// Collects one channel send for the route-resolution phase
    /// (dropped when the channel is unrouted).
    fn push_send(&mut self, channel: ChannelId, send: RouteSend);

    /// Observes a request-line edge (`was` -> `now`) on `arbiter`. The
    /// dispatch kernels reassemble request words from the lines every
    /// cycle and ignore this; the batched kernel maintains its request
    /// matrix incrementally from exactly these edges.
    fn note_request(&mut self, arbiter: ArbiterId, task: TaskId, was: bool, now: bool);

    /// Whether a live hang fault freezes `task` this cycle.
    fn task_hung(&mut self, task: TaskId) -> bool;

    /// Consults the fault plan for a read of `bank` this cycle,
    /// returning the corruption mask of a failed check.
    fn read_fault(&mut self, bank: BankId) -> Option<u64>;

    /// Replay faulted reads instead of consuming the corrupted word
    /// ([`RecoveryPolicy::retry_reads`]).
    ///
    /// [`RecoveryPolicy::retry_reads`]: crate::fault::RecoveryPolicy::retry_reads
    fn retry_reads(&self) -> bool;

    /// Reports an `AccessWithoutGrant` if `task` touches a guarded
    /// segment without holding the guard's grant.
    fn check_segment_grant(&mut self, task: TaskId, segment: SegmentId) {
        if let Some(arb) = self.segment_guard(task, segment) {
            if !self.task_granted(arb, task) {
                let cycle = self.cycle();
                self.monitor().push(Violation::AccessWithoutGrant {
                    cycle,
                    task,
                    arbiter: arb,
                });
            }
        }
    }

    /// Reports an `AccessWithoutGrant` if `task` sends on a guarded
    /// channel without holding the guard's grant.
    fn check_channel_grant(&mut self, task: TaskId, channel: ChannelId) {
        if let Some(arb) = self.channel_guard(task, channel) {
            if !self.task_granted(arb, task) {
                let cycle = self.cycle();
                self.monitor().push(Violation::AccessWithoutGrant {
                    cycle,
                    task,
                    arbiter: arb,
                });
            }
        }
    }

    /// Consults the fault plan for a read of `bank` by `task` this
    /// cycle; a failed parity check is recorded as a
    /// [`Violation::BankReadFault`] at the injection cycle.
    fn bank_read_fault(&mut self, bank: BankId, task: TaskId) -> ReadFault {
        match self.read_fault(bank) {
            Some(mask) => {
                let cycle = self.cycle();
                self.monitor()
                    .push(Violation::BankReadFault { cycle, bank, task });
                if self.retry_reads() {
                    ReadFault::Retry
                } else {
                    ReadFault::Corrupt(mask)
                }
            }
            None => ReadFault::None,
        }
    }
}

/// The engine-owned dispatch environment: per-cycle `BTreeMap` traffic
/// and map-walk lookups, exactly as the legacy kernel has always
/// worked. The batched kernel's SoA environment lives in
/// `super::soa`.
pub struct ExecCtx<'a> {
    /// The executing cycle.
    pub cycle: u64,
    /// This cycle's grant word per arbiter.
    pub grants: &'a BTreeMap<ArbiterId, u64>,
    /// All arbiters (for port lookups).
    pub arbiters: &'a [ArbiterComponent],
    /// All channel routes (for `Recv` register reads).
    pub routes: &'a [RouteComponent],
    /// Route index of every logical channel.
    pub route_of_channel: &'a BTreeMap<ChannelId, usize>,
    /// The memory binding (segment -> bank placement).
    pub binding: &'a MemoryBinding,
    /// Arbiter guarding each (task, segment) access, if any.
    pub segment_guards: &'a BTreeMap<(TaskId, SegmentId), ArbiterId>,
    /// Arbiter guarding each (task, channel) send, if any.
    pub channel_guards: &'a BTreeMap<(TaskId, ChannelId), ArbiterId>,
    /// The violation/starvation monitor.
    pub monitor: &'a mut MonitorComponent,
    /// This cycle's collected bank accesses.
    pub bank_accesses: &'a mut BTreeMap<BankId, Vec<BankAccess>>,
    /// Reads awaiting their bank's resolution: `(bank, task, dst var,
    /// corruption mask)`. The mask is XOR'd into the delivered word and
    /// is zero on the fault-free path.
    pub pending_reads: &'a mut Vec<(BankId, TaskId, VarId, u64)>,
    /// This cycle's collected route sends, per route index.
    pub route_sends: &'a mut BTreeMap<usize, Vec<RouteSend>>,
    /// The compiled fault plan, when this run injects faults.
    pub(crate) faults: &'a mut Option<FaultController>,
    /// Replay reads whose error detection failed instead of consuming
    /// the corrupted word ([`RecoveryPolicy::retry_reads`]).
    ///
    /// [`RecoveryPolicy::retry_reads`]: crate::fault::RecoveryPolicy::retry_reads
    pub(crate) retry_reads: bool,
}

/// What a read of a faulted bank does this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Error detection passed: deliver the word untouched.
    None,
    /// Error detection failed and replay is off: deliver the word with
    /// this XOR corruption.
    Corrupt(u64),
    /// Error detection failed and replay is on: discard the word and
    /// re-issue the read next cycle.
    Retry,
}

impl CycleEnv for ExecCtx<'_> {
    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn task_granted(&self, arbiter: ArbiterId, task: TaskId) -> bool {
        let word = self.grants.get(&arbiter).copied().unwrap_or(0);
        self.arbiters
            .get(arbiter.index())
            .is_some_and(|a| a.task_granted(word, task))
    }

    fn monitor(&mut self) -> &mut MonitorComponent {
        self.monitor
    }

    fn placement(&self, segment: SegmentId) -> Option<(BankId, u32)> {
        self.binding.placement(segment).map(|p| (p.bank, p.offset))
    }

    fn segment_guard(&self, task: TaskId, segment: SegmentId) -> Option<ArbiterId> {
        self.segment_guards.get(&(task, segment)).copied()
    }

    fn channel_guard(&self, task: TaskId, channel: ChannelId) -> Option<ArbiterId> {
        self.channel_guards.get(&(task, channel)).copied()
    }

    fn route_read(&self, channel: ChannelId) -> Option<u64> {
        self.route_of_channel
            .get(&channel)
            .and_then(|&route| self.routes[route].read(channel))
    }

    fn push_access(&mut self, bank: BankId, access: BankAccess) {
        self.bank_accesses.entry(bank).or_default().push(access);
    }

    fn push_pending_read(&mut self, bank: BankId, task: TaskId, dst: VarId, mask: u64) {
        self.pending_reads.push((bank, task, dst, mask));
    }

    fn push_send(&mut self, channel: ChannelId, send: RouteSend) {
        // Channel validated in `try_build`; a missing route degrades to
        // a dropped send.
        if let Some(&route) = self.route_of_channel.get(&channel) {
            self.route_sends.entry(route).or_default().push(send);
        }
    }

    fn note_request(&mut self, _arbiter: ArbiterId, _task: TaskId, _was: bool, _now: bool) {
        // Dispatch kernels reassemble request words from the task lines
        // every cycle; edges carry no extra information for them.
    }

    fn task_hung(&mut self, task: TaskId) -> bool {
        let cycle = self.cycle;
        self.faults
            .as_mut()
            .is_some_and(|fc| fc.task_hung(task, cycle))
    }

    fn read_fault(&mut self, bank: BankId) -> Option<u64> {
        let cycle = self.cycle;
        self.faults
            .as_mut()
            .and_then(|fc| fc.read_fault(bank, cycle))
    }

    fn retry_reads(&self) -> bool {
        self.retry_reads
    }
}

/// One task controller: program, datapath state and request lines.
#[derive(Debug)]
pub struct TaskComponent {
    id: TaskId,
    prog: FlatProgram,
    pc: usize,
    vars: Vec<u64>,
    loops: Vec<u32>,
    compute_left: u32,
    status: TaskStatus,
    block: Block,
    /// Remaining cycles of an armed bounded grant wait
    /// (`AwaitGrantFor`); meaningful only while `wait_armed` is set.
    wait_left: u64,
    /// Whether a bounded grant wait is in flight.
    wait_armed: bool,
    req_lines: BTreeMap<ArbiterId, bool>,
    started_at: Option<u64>,
    finished_at: Option<u64>,
    stall_cycles: u64,
    busy_cycles: u64,
}

impl TaskComponent {
    /// A fresh, not-yet-released task over a compiled program.
    pub fn new(id: TaskId, prog: FlatProgram) -> Self {
        let vars = vec![0; prog.num_vars() as usize];
        let loops = vec![0; prog.num_loop_slots()];
        Self {
            id,
            prog,
            pc: 0,
            vars,
            loops,
            compute_left: 0,
            status: TaskStatus::NotStarted,
            block: Block::Ready,
            wait_left: 0,
            wait_armed: false,
            req_lines: BTreeMap::new(),
            started_at: None,
            finished_at: None,
            stall_cycles: 0,
            busy_cycles: 0,
        }
    }

    /// The task id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's lifecycle state.
    pub fn status(&self) -> TaskStatus {
        self.status
    }

    /// The compiled program (used by build-time validation).
    pub fn program(&self) -> &FlatProgram {
        &self.prog
    }

    /// Whether this task's request line to `arbiter` is asserted.
    pub fn requesting(&self, arbiter: ArbiterId) -> bool {
        self.req_lines.get(&arbiter).copied().unwrap_or(false)
    }

    /// Releases the task at `cycle` (all predecessors done). A task
    /// with an empty program finishes in its release cycle.
    pub fn release(&mut self, cycle: u64) {
        self.status = TaskStatus::Running;
        self.started_at = Some(cycle);
        self.block = Block::Ready;
        if self.prog.instrs().is_empty() {
            self.status = TaskStatus::Done;
            self.finished_at = Some(cycle);
        }
    }

    /// Writes a variable (bank read-port delivery).
    pub fn set_var(&mut self, var: VarId, value: u64) {
        self.vars[var.index()] = value;
    }

    /// First running cycle.
    pub fn started_at(&self) -> Option<u64> {
        self.started_at
    }

    /// Completion cycle.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// Cycles spent blocked (grant or data waits).
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Cycles spent issuing instructions.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// The arbiter this task is blocked on, if it stopped its last
    /// cycle inside `AwaitGrant`.
    pub fn blocked_on_grant(&self) -> Option<ArbiterId> {
        match (self.status, self.block) {
            (TaskStatus::Running, Block::AwaitingGrant(a)) => Some(a),
            _ => None,
        }
    }

    /// The arbiter this task is blocked on in a *plain* `AwaitGrant` —
    /// no bounded-wait timer armed. Only this wait is deferrable by
    /// the batched kernel: an armed `AwaitGrantFor` must step every
    /// cycle because it counts `wait_left` down toward its timeout
    /// edge.
    pub(crate) fn plain_grant_wait(&self) -> Option<ArbiterId> {
        match (self.status, self.block) {
            (TaskStatus::Running, Block::AwaitingGrant(a)) if !self.wait_armed => Some(a),
            _ => None,
        }
    }

    /// Credits `cycles` of deferred blocked time in one update (the
    /// batched kernel's bulk flush; starvation ticks are applied by
    /// the engine, which owns the monitor).
    pub(crate) fn note_stalled(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
    }

    /// The channel this task is blocked on, if it stopped its last
    /// cycle inside an empty `Recv`.
    pub fn awaiting_data(&self) -> Option<ChannelId> {
        match (self.status, self.block) {
            (TaskStatus::Running, Block::AwaitingData(c)) => Some(c),
            _ => None,
        }
    }

    /// Executes this task's slice of one cycle: free loop bookkeeping,
    /// at most one costed instruction, then any trailing bookkeeping —
    /// so a program whose last costed instruction issues this cycle
    /// also *finishes* this cycle.
    pub fn step_cycle<E: CycleEnv>(&mut self, ctx: &mut E) {
        if self.status == TaskStatus::Running && ctx.task_hung(self.id) {
            // A hung controller issues nothing: the freeze is pure stall
            // and the task re-evaluates every cycle until the hang
            // window closes, then resumes exactly where it stopped.
            self.stall_cycles += 1;
            self.block = Block::Ready;
            return;
        }
        self.block = Block::Ready;
        self.exec(ctx);
        // A task whose program counter ran off the end this cycle is
        // done *this* cycle (its controller's done signal fires with
        // the last instruction, not a cycle later).
        if self.status == TaskStatus::Running && self.pc >= self.prog.instrs().len() {
            self.status = TaskStatus::Done;
            self.finished_at = Some(ctx.cycle());
        }
    }

    fn exec<E: CycleEnv>(&mut self, ctx: &mut E) {
        let task_id = self.id;
        let mut issued = false;
        loop {
            if self.pc >= self.prog.instrs().len() {
                self.status = TaskStatus::Done;
                self.finished_at = Some(ctx.cycle());
                return;
            }
            // Borrow the instruction in place: the program is a disjoint
            // field from every piece of state the arms mutate, so no
            // per-instruction clone (with its boxed expression trees) is
            // needed on this hot path.
            let instr = &self.prog.instrs()[self.pc];
            if issued
                && !matches!(
                    instr,
                    Instr::LoopInit { .. } | Instr::LoopBack { .. } | Instr::Jump { .. }
                )
            {
                // The cycle's one costed instruction already ran; stop at
                // the next real instruction (including AwaitGrant, whose
                // grant must be sampled in its own cycle).
                return;
            }
            match instr {
                Instr::LoopInit { slot, times } => {
                    self.loops[*slot] = *times;
                    self.pc += 1;
                }
                Instr::LoopBack { slot, target } => {
                    self.loops[*slot] -= 1;
                    if self.loops[*slot] > 0 {
                        self.pc = *target;
                    } else {
                        self.pc += 1;
                    }
                }
                Instr::Jump { target } => {
                    self.pc = *target;
                }
                Instr::AwaitGrant { arbiter } => {
                    let arbiter = *arbiter;
                    if ctx.task_granted(arbiter, task_id) {
                        ctx.monitor().granted(task_id, arbiter);
                        self.pc += 1;
                        // Free fall-through: keep executing this cycle.
                    } else {
                        self.stall_cycles += 1;
                        let cycle = ctx.cycle();
                        ctx.monitor().tick_waiting(task_id, arbiter, cycle);
                        self.block = Block::AwaitingGrant(arbiter);
                        return;
                    }
                }
                Instr::AwaitGrantFor {
                    arbiter,
                    cycles,
                    dst,
                } => {
                    let arbiter = *arbiter;
                    if ctx.task_granted(arbiter, task_id) {
                        ctx.monitor().granted(task_id, arbiter);
                        self.vars[dst.index()] = 1;
                        self.wait_armed = false;
                        self.pc += 1;
                        // Free fall-through, exactly like AwaitGrant.
                    } else {
                        if !self.wait_armed {
                            self.wait_armed = true;
                            self.wait_left = u64::from(*cycles);
                        }
                        if self.wait_left == 0 {
                            // Timed out. The outcome register already
                            // holds 0, so the task continues for free on
                            // the timeout edge (mirroring the granted
                            // fall-through).
                            self.vars[dst.index()] = 0;
                            self.wait_armed = false;
                            self.pc += 1;
                        } else {
                            self.wait_left -= 1;
                            self.stall_cycles += 1;
                            let cycle = ctx.cycle();
                            ctx.monitor().tick_waiting(task_id, arbiter, cycle);
                            self.block = Block::AwaitingGrant(arbiter);
                            return;
                        }
                    }
                }
                Instr::Compute { cycles } => {
                    if *cycles == 0 {
                        self.pc += 1;
                        continue;
                    }
                    if self.compute_left == 0 {
                        self.compute_left = *cycles;
                    }
                    self.compute_left -= 1;
                    self.busy_cycles += 1;
                    if self.compute_left == 0 {
                        self.pc += 1;
                        issued = true;
                        continue;
                    }
                    self.block = Block::Sleeping;
                    return;
                }
                Instr::Set { dst, value } => {
                    let v = value.eval(&self.vars);
                    self.vars[dst.index()] = v;
                    self.pc += 1;
                    self.busy_cycles += 1;
                    issued = true;
                }
                Instr::BranchIfZero { cond, target } => {
                    let v = cond.eval(&self.vars);
                    self.pc = if v == 0 { *target } else { self.pc + 1 };
                    self.busy_cycles += 1;
                    issued = true;
                }
                Instr::MemRead { segment, addr, dst } => {
                    let (segment, dst) = (*segment, *dst);
                    ctx.check_segment_grant(task_id, segment);
                    let a = addr.eval(&self.vars) as u32;
                    // Placement validated in `try_build`; a missing one
                    // degrades to a read delivering nothing.
                    if let Some((bank, offset)) = ctx.placement(segment) {
                        let fault = ctx.bank_read_fault(bank, task_id);
                        // The access drives the bank's lines either way,
                        // so conflicts are detected even on a replay.
                        ctx.push_access(
                            bank,
                            BankAccess {
                                task: task_id,
                                addr: offset + a,
                                write: None,
                            },
                        );
                        match fault {
                            ReadFault::None => {
                                ctx.push_pending_read(bank, task_id, dst, 0);
                            }
                            ReadFault::Corrupt(mask) => {
                                ctx.push_pending_read(bank, task_id, dst, mask);
                            }
                            ReadFault::Retry => {
                                // Discard the word and re-issue next
                                // cycle; the replay spin counts as stall
                                // so the no-progress watchdog can catch
                                // a bank that never recovers.
                                self.stall_cycles += 1;
                                self.block = Block::Ready;
                                return;
                            }
                        }
                    }
                    self.pc += 1;
                    self.busy_cycles += 1;
                    issued = true;
                }
                Instr::MemWrite {
                    segment,
                    addr,
                    value,
                } => {
                    let segment = *segment;
                    ctx.check_segment_grant(task_id, segment);
                    let a = addr.eval(&self.vars) as u32;
                    let v = value.eval(&self.vars);
                    if let Some((bank, offset)) = ctx.placement(segment) {
                        ctx.push_access(
                            bank,
                            BankAccess {
                                task: task_id,
                                addr: offset + a,
                                write: Some(v),
                            },
                        );
                    }
                    self.pc += 1;
                    self.busy_cycles += 1;
                    issued = true;
                }
                Instr::Send { channel, value } => {
                    let channel = *channel;
                    ctx.check_channel_grant(task_id, channel);
                    let v = value.eval(&self.vars);
                    ctx.push_send(
                        channel,
                        RouteSend {
                            task: task_id,
                            channel,
                            value: v,
                        },
                    );
                    self.pc += 1;
                    self.busy_cycles += 1;
                    issued = true;
                }
                Instr::Recv { channel, dst } => {
                    let channel = *channel;
                    match ctx.route_read(channel) {
                        Some(v) => {
                            self.vars[dst.index()] = v;
                            self.pc += 1;
                            self.busy_cycles += 1;
                            issued = true;
                        }
                        None => {
                            self.stall_cycles += 1;
                            self.block = Block::AwaitingData(channel);
                            return;
                        }
                    }
                }
                Instr::ReqAssert { arbiter } => {
                    let arbiter = *arbiter;
                    let was = self.req_lines.insert(arbiter, true).unwrap_or(false);
                    ctx.note_request(arbiter, task_id, was, true);
                    self.pc += 1;
                    self.busy_cycles += 1;
                    issued = true;
                }
                Instr::ReqDeassert { arbiter } => {
                    let arbiter = *arbiter;
                    let was = self.req_lines.insert(arbiter, false).unwrap_or(false);
                    ctx.note_request(arbiter, task_id, was, false);
                    self.pc += 1;
                    self.busy_cycles += 1;
                    issued = true;
                }
            }
        }
    }
}

impl Component for TaskComponent {
    fn label(&self) -> String {
        format!("task {}", self.id)
    }

    fn wake(&self, now: u64) -> Wake {
        match self.status {
            // A not-started task is woken by its predecessors finishing
            // (the engine checks release readiness separately); a done
            // task never wakes.
            TaskStatus::NotStarted | TaskStatus::Done => Wake::Idle,
            TaskStatus::Running => match self.block {
                Block::Ready => Wake::Active,
                Block::Sleeping => {
                    // After executing cycle `now - 1` with `compute_left
                    // = L`, cycles `now .. now + L - 2` are pure
                    // countdown; the instruction completes (and the task
                    // may issue again) at `now + L - 1`.
                    if self.compute_left > 1 {
                        Wake::Timer(now + u64::from(self.compute_left) - 1)
                    } else {
                        Wake::Active
                    }
                }
                // A bounded wait also times out on its own, so it is a
                // timer as well as a grant listener: the skip horizon
                // must stop at the timeout edge.
                Block::AwaitingGrant(_) if self.wait_armed => Wake::Timer(now + self.wait_left),
                // Woken by a grant edge (arbiter steadiness gates the
                // skip) or by route data (the engine checks the route
                // register at refresh time).
                Block::AwaitingGrant(_) | Block::AwaitingData(_) => Wake::Idle,
            },
        }
    }

    fn skip(&mut self, cycles: u64) {
        if self.status != TaskStatus::Running {
            return;
        }
        match self.block {
            Block::Sleeping => {
                debug_assert!(
                    u64::from(self.compute_left) > cycles,
                    "skip must stop before the compute instruction completes"
                );
                self.compute_left -= cycles as u32;
                self.busy_cycles += cycles;
            }
            // Starvation ticks for grant waits are bulk-applied by the
            // engine, which owns the monitor.
            Block::AwaitingGrant(_) | Block::AwaitingData(_) => {
                self.stall_cycles += cycles;
                if self.wait_armed {
                    debug_assert!(
                        cycles <= self.wait_left,
                        "skip must stop at the bounded wait's timeout edge"
                    );
                    self.wait_left -= cycles;
                }
            }
            Block::Ready => debug_assert!(false, "a ready task is never skippable"),
        }
    }
}
