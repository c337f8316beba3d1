//! The task component: one task controller's datapath, program counter
//! and request lines.
//!
//! A task executes exactly one *costed* instruction per cycle (free
//! loop bookkeeping around it), and tracks *why* it stopped each cycle
//! — ready, mid-compute, awaiting a grant, awaiting channel data —
//! which is what lets the batched kernel prove it inert
//! ([`TaskComponent::wake`]) and skip cycles without executing them
//! ([`TaskComponent::skip`]).

use super::soa::BatchedEnv;
use super::Wake;
use crate::channel::RouteSend;
use crate::compile::{FlatProgram, Instr};
use crate::memory::BankAccess;
use rcarb_taskgraph::id::{ArbiterId, ChannelId, TaskId, VarId};

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

/// Frame slots held inline; a frame with more spills to the heap.
const INLINE_SLOTS: usize = 8;

/// A task's datapath registers: its variables, then one counter per
/// loop slot. A task has a handful of them, so they live inline in the
/// controller and spill to one heap allocation only past
/// [`INLINE_SLOTS`].
#[derive(Debug)]
struct Frame {
    inline: [u64; INLINE_SLOTS],
    spill: Vec<u64>,
    /// The number of slots.
    len: usize,
    /// The number of variables; the loop counters start here.
    vars: usize,
}

impl Frame {
    fn new(vars: usize, loop_slots: usize) -> Self {
        let len = vars + loop_slots;
        Self {
            inline: [0; INLINE_SLOTS],
            spill: if len > INLINE_SLOTS {
                vec![0; len]
            } else {
                Vec::new()
            },
            len,
            vars,
        }
    }

    fn slots(&self) -> &[u64] {
        if self.len > INLINE_SLOTS {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }

    fn slots_mut(&mut self) -> &mut [u64] {
        if self.len > INLINE_SLOTS {
            &mut self.spill
        } else {
            &mut self.inline[..self.len]
        }
    }

    /// The variables, the view expressions are evaluated over.
    fn vars(&self) -> &[u64] {
        &self.slots()[..self.vars]
    }

    /// One variable.
    fn var_mut(&mut self, var: VarId) -> &mut u64 {
        let vars = self.vars;
        &mut self.slots_mut()[..vars][var.index()]
    }

    /// One loop counter.
    fn counter_mut(&mut self, slot: usize) -> &mut u64 {
        let vars = self.vars;
        &mut self.slots_mut()[vars + slot]
    }
}

/// The arbiters a task holds its request line up to. A task raises at
/// most a couple at once, so they live inline and spill to the heap
/// only past two.
#[derive(Debug, Default)]
struct RequestLines {
    inline: [Option<ArbiterId>; 2],
    spill: Vec<ArbiterId>,
}

impl RequestLines {
    fn contains(&self, arbiter: ArbiterId) -> bool {
        self.inline.contains(&Some(arbiter)) || self.spill.contains(&arbiter)
    }

    /// Drives the line to `arbiter` to `up`; returns its previous level.
    fn set(&mut self, arbiter: ArbiterId, up: bool) -> bool {
        let was = self.contains(arbiter);
        if up && !was {
            match self.inline.iter_mut().find(|s| s.is_none()) {
                Some(free) => *free = Some(arbiter),
                None => self.spill.push(arbiter),
            }
        } else if !up && was {
            match self.inline.iter_mut().find(|s| **s == Some(arbiter)) {
                Some(held) => *held = None,
                None => self.spill.retain(|&a| a != arbiter),
            }
        }
        was
    }
}

/// One task controller: program, datapath state and request lines.
#[derive(Debug)]
pub struct TaskComponent {
    id: TaskId,
    prog: FlatProgram,
    pc: usize,
    frame: Frame,
    compute_left: u32,
    status: TaskStatus,
    block: Block,
    /// Remaining cycles of an armed bounded grant wait
    /// (`AwaitGrantFor`); meaningful only while `wait_armed` is set.
    wait_left: u64,
    /// Whether a bounded grant wait is in flight.
    wait_armed: bool,
    req_lines: RequestLines,
    started_at: Option<u64>,
    finished_at: Option<u64>,
    stall_cycles: u64,
    busy_cycles: u64,
}

impl TaskComponent {
    /// A fresh, not-yet-released task over a compiled program.
    pub fn new(id: TaskId, prog: FlatProgram) -> Self {
        let frame = Frame::new(prog.num_vars() as usize, prog.num_loop_slots());
        Self {
            id,
            prog,
            pc: 0,
            frame,
            compute_left: 0,
            status: TaskStatus::NotStarted,
            block: Block::Ready,
            wait_left: 0,
            wait_armed: false,
            req_lines: RequestLines::default(),
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
        self.req_lines.contains(arbiter)
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
        *self.frame.var_mut(var) = value;
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

    /// The cycles left in the compute this task sleeps in, if it
    /// stopped its last cycle inside a multi-cycle `Compute`. Stepping
    /// such a task only counts this down and adds a busy cycle, so the
    /// batched kernel parks it until the compute's last cycle.
    pub(crate) fn sleep_left(&self) -> Option<u32> {
        match (self.status, self.block) {
            (TaskStatus::Running, Block::Sleeping) => Some(self.compute_left),
            _ => None,
        }
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
    pub(crate) fn step_cycle(&mut self, ctx: &mut BatchedEnv<'_>) {
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
            self.finished_at = Some(ctx.cycle);
        }
    }

    fn exec(&mut self, ctx: &mut BatchedEnv<'_>) {
        let task_id = self.id;
        let mut issued = false;
        loop {
            if self.pc >= self.prog.instrs().len() {
                self.status = TaskStatus::Done;
                self.finished_at = Some(ctx.cycle);
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
                    *self.frame.counter_mut(*slot) = u64::from(*times);
                    self.pc += 1;
                }
                Instr::LoopBack { slot, target } => {
                    let left = self.frame.counter_mut(*slot);
                    *left -= 1;
                    if *left > 0 {
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
                        ctx.monitor.granted(task_id, arbiter);
                        self.pc += 1;
                        // Free fall-through: keep executing this cycle.
                    } else {
                        self.stall_cycles += 1;
                        ctx.monitor.tick_waiting(task_id, arbiter, ctx.cycle);
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
                        ctx.monitor.granted(task_id, arbiter);
                        *self.frame.var_mut(*dst) = 1;
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
                            *self.frame.var_mut(*dst) = 0;
                            self.wait_armed = false;
                            self.pc += 1;
                        } else {
                            self.wait_left -= 1;
                            self.stall_cycles += 1;
                            ctx.monitor.tick_waiting(task_id, arbiter, ctx.cycle);
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
                    let v = self.prog.eval(*value, self.frame.vars());
                    *self.frame.var_mut(*dst) = v;
                    self.pc += 1;
                    self.busy_cycles += 1;
                    issued = true;
                }
                Instr::BranchIfZero { cond, target } => {
                    let v = self.prog.eval(*cond, self.frame.vars());
                    self.pc = if v == 0 { *target } else { self.pc + 1 };
                    self.busy_cycles += 1;
                    issued = true;
                }
                Instr::MemRead { segment, addr, dst } => {
                    let (segment, dst) = (*segment, *dst);
                    ctx.check_grant(task_id, ctx.tables.segment_guard(task_id, segment));
                    let a = self.prog.eval(*addr, self.frame.vars()) as u32;
                    // Placement validated in `try_build`; a missing one
                    // degrades to a read delivering nothing.
                    if let Some((bank, offset)) = ctx.tables.placement(segment) {
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
                    ctx.check_grant(task_id, ctx.tables.segment_guard(task_id, segment));
                    let a = self.prog.eval(*addr, self.frame.vars()) as u32;
                    let v = self.prog.eval(*value, self.frame.vars());
                    if let Some((bank, offset)) = ctx.tables.placement(segment) {
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
                    ctx.check_grant(task_id, ctx.tables.channel_guard(task_id, channel));
                    let v = self.prog.eval(*value, self.frame.vars());
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
                            *self.frame.var_mut(*dst) = v;
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
                    let was = self.req_lines.set(arbiter, true);
                    ctx.note_request(arbiter, task_id, was, true);
                    self.pc += 1;
                    self.busy_cycles += 1;
                    issued = true;
                }
                Instr::ReqDeassert { arbiter } => {
                    let arbiter = *arbiter;
                    let was = self.req_lines.set(arbiter, false);
                    ctx.note_request(arbiter, task_id, was, false);
                    self.pc += 1;
                    self.busy_cycles += 1;
                    issued = true;
                }
            }
        }
    }

    /// The task's wake condition as of cycle `now` (the next cycle to
    /// execute), derived from its own state alone and erring on the
    /// side of [`Wake::Active`].
    pub fn wake(&self, now: u64) -> Wake {
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

    /// Bulk-applies `cycles` skipped cycles: the stall and busy counts
    /// and countdowns those cycles would have advanced. Called only when
    /// every unit of the system proved itself inert across the gap.
    pub fn skip(&mut self, cycles: u64) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_keep_variables_and_counters_apart_inline_and_spilled() {
        for (vars, loops) in [(3, 2), (6, 5)] {
            let mut f = Frame::new(vars, loops);
            for v in 0..vars {
                *f.var_mut(VarId::new(v as u32)) = 10 + v as u64;
            }
            for slot in 0..loops {
                *f.counter_mut(slot) = 100 + slot as u64;
            }
            let want: Vec<u64> = (0..vars as u64).map(|v| 10 + v).collect();
            assert_eq!(f.vars(), want.as_slice(), "{vars} vars, {loops} loops");
            assert_eq!(*f.counter_mut(loops - 1), 99 + loops as u64);
        }
    }

    #[test]
    fn request_lines_report_their_previous_level_past_the_inline_pair() {
        let a = ArbiterId::new;
        let mut lines = RequestLines::default();
        for i in 0..4 {
            assert!(!lines.set(a(i), true), "line {i} was already up");
        }
        assert!(lines.set(a(2), true), "a raised line reports up");
        assert!(lines.set(a(0), false));
        assert!(lines.set(a(3), false));
        assert!(!lines.set(a(3), false), "a dropped line reports down");
        let up: Vec<bool> = (0..5).map(|i| lines.contains(a(i))).collect();
        assert_eq!(up, [false, true, true, false, false]);
    }
}
